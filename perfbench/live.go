package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/fanout"
	"fluxpower/internal/flux/job"
)

// liveSize parameterises live-telemetry.
type liveSize struct {
	nodes, jobs, subscribers int
	// intervalsPerSec is how many 2-s sampling intervals one requested
	// wall second buys; the run's simulated window is fixed by --seconds.
	intervalsPerSec float64
	setupReps       int
}

func liveParams(toy bool) liveSize {
	if toy {
		return liveSize{nodes: 8, jobs: 2, subscribers: 20, intervalsPerSec: 20, setupReps: 1}
	}
	return liveSize{nodes: 64, jobs: 8, subscribers: 2000, intervalsPerSec: 50, setupReps: 3}
}

// sampleInterval is the monitor's default sampling period; the timed
// loop advances one interval per step.
const sampleInterval = powermon.DefaultSampleInterval

// sseSink is one in-process SSE client: the http.ResponseWriter the
// gateway streams a job into. It checks that frame sequences are
// contiguous and, while recording, times each frame from the instant it
// entered its ring (fanout.Hub.FrameTime) to this Write.
type sseSink struct {
	hub       *fanout.Hub
	jobID     uint64
	recording *atomic.Bool
	delivered *atomic.Int64 // frames written to any sink while recording
	// want is the delivered count the timed loop waits for; the sink
	// whose frame reaches it signals caughtUp.
	want     *atomic.Int64
	caughtUp chan struct{}
	part     *atomic.Int32 // the window's current part, for the latency tail

	last   uint64
	gaps   int
	frames int
	lat    chunkedLatency
}

func (s *sseSink) Header() http.Header  { return http.Header{} }
func (s *sseSink) WriteHeader(code int) {}
func (s *sseSink) Flush()               {}

func (s *sseSink) Write(p []byte) (int, error) {
	seq, ok := frameSeq(p)
	if !ok {
		return len(p), nil
	}
	if s.last != 0 && seq != s.last+1 {
		s.gaps++
	}
	s.last = seq
	if s.recording.Load() {
		if seq%latencyEvery == 0 {
			if at, ok := s.hub.FrameTime(s.jobID, seq); ok {
				i := s.part.Load()
				s.lat[i] = append(s.lat[i], ms(time.Since(at)))
			}
		}
		s.frames++
		if s.delivered.Add(1) == s.want.Load() {
			select {
			case s.caughtUp <- struct{}{}:
			default:
			}
		}
	}
	return len(p), nil
}

// latencyEvery thins delivery-latency samples to every n-th frame of a
// ring (all its subscribers), bounding the samples kept per run.
const latencyEvery = 8

// frameSeq parses the leading "id: <seq>" line of an SSE frame.
func frameSeq(p []byte) (uint64, bool) {
	if len(p) < 5 || string(p[:4]) != "id: " {
		return 0, false
	}
	var seq uint64
	for i := 4; i < len(p) && p[i] != '\n'; i++ {
		if p[i] < '0' || p[i] > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(p[i]-'0')
	}
	return seq, true
}

// runLive is live-telemetry: the paper-default monitor (100k-sample
// ring) publishing every sample, a tsdb store and the query module on
// every node, and one hub-backed gateway streaming long-running jobs to
// ~2000 SSE subscribers. Each timed step advances one sampling interval
// under Gateway.Sync and then waits until every subscriber has every
// frame, so host time per simulated second includes delivery.
func runLive(o options) (*report, error) {
	p := liveParams(o.toy)
	rep := newReport()
	tr := o.tracer()
	sc := stackConfig{
		nodes:   p.nodes,
		mon:     powermon.Config{PublishSamples: true},
		store:   true,
		query:   true,
		gateway: true,
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

	// Long jobs that outlive the window, one per block of nodes.
	ids := make([]uint64, p.jobs)
	for i := range ids {
		spec := job.Spec{App: "gemm", Nodes: p.nodes / p.jobs, RepFactor: 40}
		if ids[i], err = s.submit(nil, spec); err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
	}
	s.sync(func() { s.c.RunFor(5 * time.Second) })

	var recording atomic.Bool
	var delivered, want atomic.Int64
	caughtUp := make(chan struct{}, 1)
	var part atomic.Int32
	sinks := make([]*sseSink, p.subscribers)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := range sinks {
		id := ids[i%len(ids)]
		sinks[i] = &sseSink{hub: s.hub, jobID: id, recording: &recording, delivered: &delivered,
			want: &want, caughtUp: caughtUp, part: &part}
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%d/stream", id), nil).WithContext(ctx)
		wg.Add(1)
		go func(sink *sseSink) {
			defer wg.Done()
			s.gw.ServeHTTP(sink, req)
		}(sinks[i])
	}
	stopClients := func() {
		cancel()
		wg.Wait()
	}
	defer stopClients()
	if err := waitHub(s.hub, "attach", func(m fanout.Metrics) bool {
		return m.Subscribers == p.subscribers && m.SnapshotsServed >= uint64(p.subscribers)
	}); err != nil {
		return nil, err
	}

	steps := int(o.seconds*p.intervalsPerSec + 0.5)
	// Host CPU time per step, delivery included, by chunk of simulated
	// time. The traced run switches tracing on and off at chunk
	// boundaries.
	rate := newHostRate(time.Duration(steps) * sampleInterval)
	tw := newTraceWindow(tr)
	var before snap
	s.sync(func() { before, err = s.snapshot(tr) })
	if err != nil {
		return nil, err
	}
	start := s.hub.Metrics()
	recording.Store(true)
	for i := 0; i < steps; i++ {
		at := time.Duration(i) * sampleInterval
		if err := tw.set(tracedChunk(rate.index(at))); err != nil {
			return nil, err
		}
		part.Store(int32(i * latChunks / steps))
		c0 := procCPU()
		var appended uint64
		s.sync(func() {
			s.runFor(tr, sampleInterval)
			appended = s.hub.Metrics().FramesAppended - start.FramesAppended
		})
		want.Store(int64(appended) * int64(p.subscribers/len(ids)))
		deadline := time.NewTimer(time.Minute)
		for delivered.Load() < want.Load() {
			select {
			case <-caughtUp:
			case <-deadline.C:
				return nil, fmt.Errorf("step %d: %d of %d frames delivered after a minute", i, delivered.Load(), want.Load())
			}
		}
		deadline.Stop()
		rate.add(at, procCPU()-c0, sampleInterval)
	}
	recording.Store(false)
	end := s.hub.Metrics()
	prof, err := tw.stop()
	if err != nil {
		return nil, err
	}
	var after snap
	s.sync(func() { after, err = s.snapshot(tr) })
	if err != nil {
		return nil, err
	}

	// Final sync: run on to just before the next store maintenance
	// instant, then past it. Every sample appended before the sync must
	// be durable after it.
	var pre, post uint64
	ranks := 0
	s.sync(func() {
		now := s.c.Now().Duration()
		period := storeSyncInterval
		syncAt := (now/period + 1) * period
		s.c.RunFor(syncAt - time.Millisecond - now)
		h, _ := s.storeTotals()
		pre = h.AppendedSamples
		s.c.RunFor(2 * time.Millisecond)
		h, ranks = s.storeTotals()
		post = h.DurableSamples
	})
	stopClients()

	switch o.corrupt {
	case "delivery":
		sinks[0].frames--
	case "durable":
		pre = post + 1
	}
	// Correctness: one upstream subscription per ring, every frame
	// delivered to every subscriber in order, and the store durable.
	frames := end.FramesAppended - start.FramesAppended
	var got int64
	gaps := 0
	var lat chunkedLatency
	for _, sk := range sinks {
		got += int64(sk.frames)
		gaps += sk.gaps
		for i := range lat {
			lat[i] = append(lat[i], sk.lat[i]...)
		}
	}
	perRing := int64(p.subscribers / len(ids))
	rep.check(end.Rings == len(ids) && end.SampleSubs == len(ids), "%d rings hold %d upstream subscriptions, want %d rings with one each", end.Rings, end.SampleSubs, len(ids))
	rep.check(got == int64(frames)*perRing, "%d deliveries, want %d subscribers x %d frames", got, perRing, frames)
	rep.check(end.FramesDelivered-start.FramesDelivered == uint64(got), "hub counted %d deliveries, subscribers saw %d", end.FramesDelivered-start.FramesDelivered, got)
	rep.check(gaps == 0, "%d sequence gaps", gaps)
	rep.check(end.Evictions == 0, "%d subscribers evicted", end.Evictions)
	rep.check(ranks == p.nodes, "%d of %d ranks have a store", ranks, p.nodes)
	rep.check(post >= pre, "after the final sync %d samples are durable, %d were appended before it", post, pre)
	rep.Attempted = int64(frames) * perRing
	rep.Failed = rep.Attempted - got + int64(gaps) + int64(end.Evictions)
	if rep.Failed < 0 {
		rep.Failed = 0
	}

	simS := float64(steps) * sampleInterval.Seconds()
	rep.note("live-telemetry: %d nodes, %d jobs, %d subscribers, %d frames x %d subscribers per ring over %.0f sim-s",
		p.nodes, len(ids), p.subscribers, frames, perRing, simS)
	sseTail := rep.setLatency("sse", &lat) // fanout.Hub.FrameTime to the subscriber's Write
	if tr == nil {
		rep.set("host_cpu_ms_per_sim_s", "ms", rate.msPerSimSec())
	} else {
		rep.set("fanout.sse_p99_ms", "ms", sseTail)
		setLayerMetrics(rep, s, tr, before, after, prof, rate.simWhere(tracedChunk))
		rep.setTraceRates(rate)
		rep.set("powermon.heap_bytes_per_node", "B", heapPerNode)
		if err := o.writeTrace(tr, "live-telemetry", prof, rep); err != nil {
			return nil, err
		}
	}
	rep.set("peak_heap_mb", "MB", float64(peak.Stop())/1e6)
	return rep, nil
}

// waitHub polls the hub until cond holds.
func waitHub(h *fanout.Hub, what string, cond func(fanout.Metrics) bool) error {
	deadline := time.Now().Add(2 * time.Minute)
	for !cond(h.Metrics()) {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s: %+v", what, h.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
