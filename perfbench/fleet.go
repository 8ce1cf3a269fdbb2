package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/job"
)

// fleetSize parameterises fleet-stream.
type fleetSize struct {
	nodes int
	// ringSamples sizes the monitor's raw ring to hold every sample of
	// the longest window the run may simulate (simCap), so answers match
	// the paper's 100k default without its memory (~15 GB at 1024 nodes).
	ringSamples int
	simCap      time.Duration // the run never simulates past this
	// simPerSec is how much simulated time one requested wall second
	// buys: every run simulates the same window for a given --seconds,
	// so a faster program finishes sooner on identical work instead of
	// reaching further into the trace.
	simPerSec time.Duration
	// detAt is the simulated instant at which the deterministic outcome
	// metrics and the digest are taken; every run reaches it.
	detAt      time.Duration
	checkEvery time.Duration // budget checkpoint period
	// perNodeW is the power budget per node. Running jobs are predicted
	// at ~1300 W per node and the trace keeps about half the fleet busy,
	// so a budget near the offered mean binds most of the time: jobs
	// queue for power and the closed loop trims caps.
	perNodeW  float64
	setupReps int
	trace     traceParams
}

func fleetParams(toy bool) fleetSize {
	if toy {
		return fleetSize{
			nodes: 16, ringSamples: 512, simCap: 900 * time.Second, simPerSec: 60 * time.Second,
			detAt: 120 * time.Second, checkEvery: 20 * time.Second,
			perNodeW: 600, setupReps: 1,
			trace: traceParams{
				HorizonSec: 900, RatePerSec: 0.1, DayLenSec: 86400, DiurnalAmp: 0.5,
				BurstGapSec: 120, BurstLenSec: 15, BurstFactor: 3, MaxNodes: 8,
				RepFactors: []float64{0.25, 0.5},
			},
		}
	}
	return fleetSize{
		nodes: 1024, ringSamples: 1280, simCap: 2400 * time.Second, simPerSec: 60 * time.Second,
		detAt: 1200 * time.Second, checkEvery: 30 * time.Second,
		perNodeW: 600, setupReps: 3,
		trace: traceParams{
			HorizonSec: 2400, RatePerSec: 0.5, DayLenSec: 86400, DiurnalAmp: 0.5,
			BurstGapSec: 120, BurstLenSec: 15, BurstFactor: 3, MaxNodes: 128,
			RepFactors: []float64{0.25, 0.5},
		},
	}
}

// runFleet is fleet-stream: a 1024-node cluster with the monitor, the
// power manager (proportional, closed loop retuning) and power-aware
// dispatch against one budget, fed an open-loop synthetic job trace.
// Every submit goes through job.Client at the root broker and is timed.
func runFleet(o options) (*report, error) {
	p := fleetParams(o.toy)
	rep := newReport()
	rows, err := o.jobTrace(p.trace)
	if err != nil {
		return nil, err
	}

	tr := o.tracer()
	sc := stackConfig{
		nodes:   p.nodes,
		mon:     powermon.Config{BufferSamples: p.ringSamples},
		budgetW: p.perNodeW * float64(p.nodes),
	}
	s, setupS, peak, err := setupRepeated(p.setupReps, o.runDir, func(dir string) (*stack, error) {
		return buildStack(sc, o.seed, dir, tr)
	})
	if err != nil {
		stopPeak(peak)
		return nil, err
	}
	defer s.close()
	rep.set("setup_s", "s", setupS)
	heapPerNode := float64(settledHeap()) / float64(p.nodes)
	rep.note("live heap after set-up: %.1f MB", heapPerNode*float64(p.nodes)/1e6)

	var (
		submitted = map[uint64]bool{}
		// Submits whose job starts within the call (dispatch, node start
		// and the power manager's cap push to every node) take ~10 ms;
		// submits that queue take ~1.4 ms. The share of each differs
		// between seeds, so a median over both jumps between the two;
		// latency_p50_ms is taken over the starting submits alone.
		startLat    chunkedLatency
		queuedLat   []float64
		failed      int64
		next        int
		runningArea float64 // Σ running jobs × sim-s
		queueMax    int
		detDone     bool
	)
	simEnd := min(p.simCap, max(p.detAt, time.Duration(o.seconds*float64(p.simPerSec))))
	// Host CPU time in RunFor and Submit, by chunk of simulated time.
	// The traced run switches tracing on and off at chunk boundaries.
	rate := newHostRate(simEnd)
	tw := newTraceWindow(tr)
	before, err := s.snapshot(tr)
	if err != nil {
		return nil, err
	}
	nextCheck := p.checkEvery
	for {
		now := s.c.Now().Duration()
		if now >= simEnd {
			break
		}
		target := simEnd
		if tw != nil {
			chunk := rate.index(now)
			if err := tw.set(tracedChunk(chunk)); err != nil {
				return nil, err
			}
			target = min(target, rate.end(chunk))
		}
		if next < len(rows) {
			target = min(target, rows[next].at())
		}
		target = min(target, nextCheck)
		if !detDone {
			target = min(target, p.detAt)
		}
		runningArea += float64(len(s.c.RunningJobs())) * (target - now).Seconds()

		var step []timedSubmit
		c0 := procCPU()
		if target > now {
			s.runFor(tr, target-now)
		}
		for next < len(rows) && rows[next].at() <= target {
			spec := rows[next].spec(next)
			next++
			s0 := time.Now()
			id, err := s.submit(tr, spec)
			lat := ms(time.Since(s0))
			if err != nil {
				failed++
				continue
			}
			step = append(step, timedSubmit{id, lat})
		}
		rate.add(now, procCPU()-c0, target-now)
		if len(step) > 0 {
			running := map[uint64]bool{}
			for _, id := range s.c.RunningJobs() {
				running[id] = true
			}
			for _, sub := range step {
				submitted[sub.id] = true
				if running[sub.id] {
					startLat.add(float64(target)/float64(simEnd), sub.lat)
				} else {
					queuedLat = append(queuedLat, sub.lat)
				}
			}
		}

		if target == nextCheck {
			nextCheck += p.checkEvery
			depth, err := fleetCheckpoint(s, rep, target, o.corrupt)
			if err != nil {
				return nil, err
			}
			queueMax = max(queueMax, depth)
		}
		if !detDone && target == p.detAt {
			detDone = true
			if err := fleetOutcomes(s, rep, p.detAt); err != nil {
				return nil, err
			}
		}
	}
	prof, err := tw.stop()
	if err != nil {
		return nil, err
	}

	if o.corrupt == "accounting" {
		for id := range submitted {
			delete(submitted, id)
			break
		}
	}
	// Every submitted job is accounted for exactly once.
	recs, err := s.c.JM.List()
	if err != nil {
		return nil, err
	}
	seen := map[uint64]bool{}
	running := 0
	for _, r := range recs {
		rep.check(submitted[r.ID] && !seen[r.ID], "job %d listed but never submitted, or listed twice", r.ID)
		seen[r.ID] = true
		if r.State == job.StateRun {
			running++
		}
	}
	rep.check(len(seen) == len(submitted), "%d jobs submitted, %d listed", len(submitted), len(seen))
	rep.check(running == len(s.c.RunningJobs()), "%d jobs RUN in the job manager, %d running on nodes", running, len(s.c.RunningJobs()))

	rep.Attempted = int64(next)
	rep.Failed = failed
	rep.note("fleet-stream: %d nodes, %d jobs submitted over %.0f sim-s (trace of %d)", p.nodes, next, s.simSec(), len(rows))
	// job.Client.Submit through the root broker, of jobs that start at once
	submitTail := rep.setLatency("submit", &startLat)
	rep.note("submits that queue: %d, p50 %.4f ms", len(queuedLat), median(queuedLat))
	if tr == nil {
		rep.set("host_cpu_ms_per_sim_s", "ms", rate.msPerSimSec())
	} else {
		after, err := s.snapshot(tr)
		if err != nil {
			return nil, err
		}
		setLayerMetrics(rep, s, tr, before, after, prof, rate.simWhere(tracedChunk))
		rep.setTraceRates(rate)
		rep.set("job.submit_p99_ms", "ms", submitTail)
		rep.set("cluster.running_jobs_avg", "count", runningArea/(after.sim-before.sim))
		rep.set("sched.queue_depth_max", "count", float64(queueMax))
		rep.set("powermon.heap_bytes_per_node", "B", heapPerNode)
		if err := o.writeTrace(tr, "fleet-stream", prof, rep); err != nil {
			return nil, err
		}
	}
	rep.set("peak_heap_mb", "MB", float64(peak.Stop())/1e6)
	return rep, nil
}

// timedSubmit is one accepted submit and its latency in milliseconds.
type timedSubmit struct {
	id  uint64
	lat float64
}

func stopPeak(p *heapPeak) {
	if p != nil {
		p.Stop()
	}
}

// at is the row's submit instant on the simulated clock, to the
// millisecond.
func (r jobRow) at() time.Duration {
	return time.Duration(r.SubmitSec*1000+0.5) * time.Millisecond
}

func (r jobRow) spec(i int) job.Spec {
	return job.Spec{
		Name:       fmt.Sprintf("%s-%d", r.App, i+1),
		App:        r.App,
		Nodes:      r.Nodes,
		SizeFactor: r.SizeFactor,
		RepFactor:  r.RepFactor,
	}
}

// fleetCheckpoint verifies that the power manager's granted job limits
// and the dispatcher's admitted prediction both stay within the budget,
// and returns the queue depth.
func fleetCheckpoint(s *stack, rep *report, at time.Duration, corrupt string) (int, error) {
	_, capW, allocs, err := s.pm.Status()
	if err != nil {
		return 0, fmt.Errorf("power-manager status: %w", err)
	}
	granted := 0.0
	for _, a := range allocs {
		granted += a.JobLimitW
	}
	if corrupt == "granted" {
		granted += capW
	}
	rep.check(granted <= capW+1e-6, "at %v granted job limits %.1f W exceed the %.1f W budget", at, granted, capW)
	st, err := s.c.JM.Sched()
	if err != nil {
		return 0, fmt.Errorf("sched status: %w", err)
	}
	if corrupt == "admitted" {
		st.PredictedW += st.BudgetW
	}
	rep.check(st.PredictedW <= st.BudgetW+1e-6, "at %v admitted prediction %.1f W exceeds the %.1f W budget", at, st.PredictedW, st.BudgetW)
	return st.QueueDepth, nil
}

// fleetOutcomes records the simulated outcome at instant at: completed
// jobs per simulated hour, median and mean queue wait (power-aware
// backfill starts most jobs at once, so the median is often 0 while the
// mean shows how hard the budget binds), sustained cap violations,
// and a digest of every job record. They depend only on the seed, so
// same-seed runs must print the same values whatever the host speed.
func fleetOutcomes(s *stack, rep *report, at time.Duration) error {
	recs, err := s.c.JM.List()
	if err != nil {
		return err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	h := sha256.New()
	done := 0
	var waits []float64
	for _, r := range recs {
		fmt.Fprintf(h, "%d %s %d %s %.3f %.3f %.3f %v\n", r.ID, r.Spec.App, r.Spec.Nodes, r.State,
			r.SubmitSec, r.StartSec, r.EndSec, r.Ranks)
		if r.State == job.StateInactive {
			done++
		}
		if r.State != job.StateSched {
			waits = append(waits, r.QueueWaitSec)
		}
	}
	ctl, err := s.pm.Controller()
	if err != nil {
		return err
	}
	perH := float64(done) * 3600 / at.Seconds()
	rep.set("sim_jobs_per_h", "jobs/sim-h", perH)
	rep.set("sim_wait_p50_s", "sim-s", median(waits))
	rep.set("sim_wait_mean_s", "sim-s", mean(waits))
	rep.set("sim_sustained_violations", "count", float64(ctl.Sustained))
	rep.note("sim outcome at %v: sim_jobs_per_h %.3f, sim_wait_p50_s %.3f, sim_wait_mean_s %.3f, sim_sustained_violations %d, digest %s",
		at, perH, median(waits), mean(waits), ctl.Sustained, hex.EncodeToString(h.Sum(nil))[:16])
	return nil
}
