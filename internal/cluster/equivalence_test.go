package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/chaos"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/hw"
	"fluxpower/internal/simtime"
)

// Engine-equivalence suite: every seeded scenario here runs on the tick
// engine and must match a golden outcome recorded from an independent
// implementation — a discrete-event engine in which each running job
// scheduled its own progress event on a sharded, pooled event queue. That
// engine was retired once it had been held bit-identical to the tick
// engine; its outcomes, in testdata/equivalence.golden.json, remain the
// reference. Because it integrated the same per-Δt math at the same grid
// instants with the same per-node RNG streams, the bar is strict:
// completion times within one tick, energy integrals and power figures
// bit-identical, final GPU caps bit-identical, chaos invariants
// identically clean. JSON float encoding round-trips exactly, so the
// golden carries every bit.

// equivalenceGolden holds the reference outcome of every scenario × seed,
// keyed "<scenario>/seed=<n>" like the subtests.
const equivalenceGolden = "testdata/equivalence.golden.json"

// jobOutcome is one job's result in engine-comparable form.
type jobOutcome struct {
	ID       uint64
	App      string
	Ranks    []int32
	StartSec float64
	EndSec   float64
	EnergyJ  float64
	MaxW     float64
	AvgW     float64
}

func outcomeOf(st JobStats) jobOutcome {
	return jobOutcome{
		ID:       st.ID,
		App:      st.App,
		Ranks:    st.Ranks,
		StartSec: st.StartSec,
		EndSec:   st.EndSec,
		EnergyJ:  st.EnergyPerNodeJ,
		MaxW:     st.MaxNodePowerW,
		AvgW:     st.AvgNodePowerW,
	}
}

// simOutcome is everything a scenario exposes for comparison with the golden.
type simOutcome struct {
	Jobs       []jobOutcome
	EndTime    simtime.Time
	Violations int       // chaos scenarios: invariant breaks after quiesce
	GPUCaps    []float64 // closed-loop scenario: final effective GPU caps
}

// compareOutcomes asserts the equivalence contract between the tick
// engine's run of a seeded scenario and the recorded event-engine golden.
func compareOutcomes(t *testing.T, tick, event simOutcome, tickDur time.Duration) {
	t.Helper()
	tol := tickDur.Seconds() + 1e-9
	if len(tick.Jobs) != len(event.Jobs) {
		t.Fatalf("job count: tick=%d event=%d", len(tick.Jobs), len(event.Jobs))
	}
	for i := range tick.Jobs {
		tj, ej := tick.Jobs[i], event.Jobs[i]
		if tj.ID != ej.ID || tj.App != ej.App {
			t.Fatalf("job %d identity: tick=%d/%s event=%d/%s", i, tj.ID, tj.App, ej.ID, ej.App)
		}
		if len(tj.Ranks) != len(ej.Ranks) {
			t.Fatalf("job %d (%s) allocation: tick=%v event=%v", tj.ID, tj.App, tj.Ranks, ej.Ranks)
		}
		for k := range tj.Ranks {
			if tj.Ranks[k] != ej.Ranks[k] {
				t.Fatalf("job %d (%s) allocation: tick=%v event=%v", tj.ID, tj.App, tj.Ranks, ej.Ranks)
			}
		}
		if math.Abs(tj.StartSec-ej.StartSec) > tol {
			t.Fatalf("job %d (%s) start: tick=%.3f event=%.3f (tol %.3f)",
				tj.ID, tj.App, tj.StartSec, ej.StartSec, tol)
		}
		if math.Abs(tj.EndSec-ej.EndSec) > tol {
			t.Fatalf("job %d (%s) end: tick=%.3f event=%.3f (tol %.3f)",
				tj.ID, tj.App, tj.EndSec, ej.EndSec, tol)
		}
		// Energy is an integral of identical samples at identical instants:
		// the engines must agree to the bit, not to a tolerance.
		if tj.EnergyJ != ej.EnergyJ {
			t.Fatalf("job %d (%s) energy: tick=%v event=%v (diff %g)",
				tj.ID, tj.App, tj.EnergyJ, ej.EnergyJ, tj.EnergyJ-ej.EnergyJ)
		}
		if tj.MaxW != ej.MaxW || tj.AvgW != ej.AvgW {
			t.Fatalf("job %d (%s) power: tick max=%v avg=%v, event max=%v avg=%v",
				tj.ID, tj.App, tj.MaxW, tj.AvgW, ej.MaxW, ej.AvgW)
		}
	}
	if tick.Violations != event.Violations {
		t.Fatalf("chaos violations: tick=%d event=%d", tick.Violations, event.Violations)
	}
	if len(tick.GPUCaps) != len(event.GPUCaps) {
		t.Fatalf("cap vector length: tick=%d event=%d", len(tick.GPUCaps), len(event.GPUCaps))
	}
	for i := range tick.GPUCaps {
		if tick.GPUCaps[i] != event.GPUCaps[i] {
			t.Fatalf("rank %d final GPU cap: tick=%v event=%v", i, tick.GPUCaps[i], event.GPUCaps[i])
		}
	}
}

func sortedOutcomes(stats map[uint64]JobStats) []jobOutcome {
	ids := make([]uint64, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]jobOutcome, 0, len(ids))
	for _, id := range ids {
		out = append(out, outcomeOf(stats[id]))
	}
	return out
}

// collectStats snapshots every known job's stats.
func collectStats(c *Cluster, ids []uint64) map[uint64]JobStats {
	m := make(map[uint64]JobStats, len(ids))
	for _, id := range ids {
		if st, ok := c.Stats(id); ok {
			m[id] = st
		}
	}
	return m
}

// --- Scenario 1: multi-application backlog with jitter and sensor noise ---

// runBacklogScenario queues more work than the cluster holds so FCFS
// redispatch, queue waits, jitter draws and noisy sensors all participate.
func runBacklogScenario(t *testing.T, seed int64) simOutcome {
	t.Helper()
	c, err := New(Config{
		System: Lassen, Nodes: 8, Seed: seed,
		Jitter: true, SensorNoiseW: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	specs := []job.Spec{
		{App: "gemm", Nodes: 4, RepFactor: 0.3},
		{App: "laghos", Nodes: 4},
		{App: "quicksilver", Nodes: 2, SizeFactor: 2},
		{App: "laghos", Nodes: 8},
		{App: "gemm", Nodes: 2, RepFactor: 0.5},
	}
	var ids []uint64
	for _, s := range specs {
		id, err := c.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, idle := c.RunUntilIdle(30 * time.Minute); !idle {
		t.Fatal("backlog never drained")
	}
	return simOutcome{Jobs: sortedOutcomes(collectStats(c, ids)), EndTime: c.Now()}
}

// --- Scenario 2: power manager closed loop under a cluster bound ---

// runClosedLoopScenario loads the full power stack — monitor plus
// proportional manager with the retune controller — under a cluster
// budget tight enough to throttle, so cap pushes, observations and
// retunes all fire while jobs run.
func runClosedLoopScenario(t *testing.T, seed int64) simOutcome {
	t.Helper()
	c, err := New(Config{System: Lassen, Nodes: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{SampleInterval: 2 * time.Second})
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermgr.New(powermgr.Config{
			Policy:     powermgr.PolicyProportional,
			GlobalCapW: 8 * 900,
			Controller: powermgr.ControllerConfig{Mode: "retune", Interval: 4 * time.Second},
		})
	}); err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, s := range []job.Spec{
		{App: "gemm", Nodes: 6, RepFactor: 0.4},
		{App: "quicksilver", Nodes: 2, SizeFactor: 2},
		{App: "laghos", Nodes: 8},
	} {
		id, err := c.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, idle := c.RunUntilIdle(30 * time.Minute); !idle {
		t.Fatal("managed backlog never drained")
	}
	out := simOutcome{Jobs: sortedOutcomes(collectStats(c, ids)), EndTime: c.Now()}
	for r := int32(0); r < 8; r++ {
		out.GPUCaps = append(out.GPUCaps, c.Node(r).EffectiveGPUCap(0))
	}
	return out
}

// --- Scenario 3: chaos plan over a monitored fabric ---

// runChaosEquivScenario injects a seeded fault plan: drops degrade the
// query plane while a job runs, then faults clear and the chaos
// invariants must hold identically. No manager is loaded, so faults touch
// only telemetry — job progress must match bit-for-bit even while the
// fabric burns.
func runChaosEquivScenario(t *testing.T, seed int64) simOutcome {
	t.Helper()
	const nodes = 16
	plan := chaos.Plan{Seed: seed, Links: []chaos.LinkRule{{
		From: chaos.AnyRank, To: chaos.AnyRank, DropProb: 0.15,
	}}}
	inj := chaos.New(plan)
	c, err := New(Config{
		System: Lassen, Nodes: nodes, Seed: seed,
		WrapLink:    inj.WrapLink,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inj.Bind(c.Sched)

	var live *chaos.Liveness
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		l := chaos.NewLiveness(2 * time.Second)
		if rank == 0 {
			live = l
		}
		return l
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{
			SampleInterval: 2 * time.Second,
			CollectTimeout: 2 * time.Second,
		})
	}); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(job.Spec{Name: "equiv-chaos", App: "gemm", Nodes: nodes, RepFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second) // fault-free warm-up

	inj.Arm()
	mon := powermon.NewClient(c.Inst.Root())
	for round := 0; round < 8; round++ {
		c.RunFor(4 * time.Second)
		// Query outcomes under fire are allowed to differ between engines
		// (fault draws depend on message interleaving); only the invariants
		// and the job's physics are held equal.
		_, _ = mon.QueryAggregateContext(context.Background(), id)
	}
	inj.Disarm()
	c.RunFor(10 * time.Second) // quiesce
	if _, idle := c.RunUntilIdle(30 * time.Minute); !idle {
		t.Fatal("chaos job never finished")
	}
	out := simOutcome{Jobs: sortedOutcomes(collectStats(c, []uint64{id})), EndTime: c.Now()}
	out.Violations = len(chaos.Check(chaos.CheckConfig{
		Brokers:            c.Inst.Brokers,
		Injector:           inj,
		Liveness:           live,
		Monitor:            true,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	}))
	return out
}

// --- Scenario 4: nested user-level instance with a mid-run spawn ---

// runSubinstanceScenario exercises the sub-instance path, including a sub-instance spawned while the simulation is already
// mid-flight and sub-jobs submitted at staggered instants.
func runSubinstanceScenario(t *testing.T, seed int64) simOutcome {
	t.Helper()
	c, err := New(Config{System: Lassen, Nodes: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mainID, err := c.Submit(job.Spec{App: "quicksilver", Nodes: 2, SizeFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	// Mid-run spawn: the allocation job starts at T+5s, with the engine
	// already ticking.
	si, err := c.SpawnSubInstance(job.Spec{Name: "equiv-alloc", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := si.Submit(job.Spec{App: "laghos", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Second)
	b, err := si.Submit(job.Spec{App: "gemm", Nodes: 2, RepFactor: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, idle := c.RunUntilIdle(10 * time.Minute); !idle {
		t.Fatal("main job never drained")
	}
	if !si.Idle() {
		t.Fatal("sub-jobs never drained")
	}
	out := simOutcome{EndTime: c.Now()}
	for _, id := range []uint64{a, b} {
		st, ok := si.Stats(id)
		if !ok || st.EndSec == 0 {
			t.Fatalf("sub-job %d incomplete: %+v", id, st)
		}
		out.Jobs = append(out.Jobs, outcomeOf(st))
	}
	st, _ := c.Stats(mainID)
	out.Jobs = append(out.Jobs, outcomeOf(st))
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTickEquivalence runs each seeded scenario on the tick engine and
// holds the outcome to the recorded event-engine golden.
func TestTickEquivalence(t *testing.T) {
	raw, err := os.ReadFile(equivalenceGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]simOutcome
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", equivalenceGolden, err)
	}
	scenarios := []struct {
		name string
		run  func(*testing.T, int64) simOutcome
	}{
		{"backlog", runBacklogScenario},
		{"closed-loop", runClosedLoopScenario},
		{"chaos", runChaosEquivScenario},
		{"subinstance", runSubinstanceScenario},
	}
	for _, sc := range scenarios {
		for _, seed := range []int64{7, 42, 20240601} {
			name := fmt.Sprintf("%s/seed=%d", sc.name, seed)
			t.Run(name, func(t *testing.T) {
				want, ok := golden[name]
				if !ok {
					t.Fatalf("%s has no %q entry", equivalenceGolden, name)
				}
				compareOutcomes(t, sc.run(t, seed), want, 100*time.Millisecond)
			})
		}
	}
}

// TestEquivalenceLiveChaosInvariants closes the loop with the deployment
// transport: the same seeded chaos plans the sim scenarios survive are
// replayed over real TCP sockets and wall-clock timers, and the
// post-quiesce invariant outcome must be the same — zero violations.
// (Wall-clock runs cannot match sim timings sample-for-sample; invariant
// equivalence is the cross-transport contract.)
func TestEquivalenceLiveChaosInvariants(t *testing.T) {
	for _, seed := range []int64{7, 42, 20240601} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			const size = 8
			plan := chaos.Plan{Seed: seed, Links: []chaos.LinkRule{{
				From: chaos.AnyRank, To: chaos.AnyRank, DropProb: 0.15,
			}}}
			inj := chaos.New(plan)
			nodes := make([]*hw.Node, size)
			for i := range nodes {
				n, err := hw.NewNode("equivlive", hw.LassenConfig(), seed*131+int64(i))
				if err != nil {
					t.Fatal(err)
				}
				n.SetDemand(hw.Demand{
					CPUW: []float64{150, 150},
					MemW: 80,
					GPUW: []float64{200, 200, 200, 200},
				})
				nodes[i] = n
			}
			li, err := broker.NewLiveInstance(broker.InstanceOptions{
				Size:        size,
				Local:       func(rank int32) any { return nodes[rank] },
				WrapLink:    inj.WrapLink,
				CallTimeout: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer li.Close()
			inj.Bind(li.Wall)

			var live *chaos.Liveness
			if err := li.LoadModuleAll(func(rank int32) broker.Module {
				l := chaos.NewLiveness(400 * time.Millisecond)
				if rank == 0 {
					live = l
				}
				return l
			}); err != nil {
				t.Fatal(err)
			}
			if err := li.LoadModuleAll(func(rank int32) broker.Module {
				return powermon.New(powermon.Config{
					SampleInterval: 20 * time.Millisecond,
					CollectTimeout: 200 * time.Millisecond,
				})
			}); err != nil {
				t.Fatal(err)
			}

			time.Sleep(150 * time.Millisecond) // warm-up: rings fill
			inj.Arm()
			for round := 0; round < 3; round++ {
				time.Sleep(300 * time.Millisecond)
				rank := int32(1 + round%(size-1))
				_, _ = li.Root().CallTimeout(rank, "power-monitor.collect",
					map[string]float64{"start_sec": 0, "end_sec": 3600}, 200*time.Millisecond)
			}
			inj.Disarm()
			time.Sleep(900 * time.Millisecond) // quiesce past timeouts

			vs := chaos.Check(chaos.CheckConfig{
				Brokers:            li.Brokers,
				Injector:           inj,
				Liveness:           live,
				Monitor:            true,
				RPCTimeout:         2 * time.Second,
				ExpectAllReachable: true,
			})
			if len(vs) != 0 {
				lines := make([]string, len(vs))
				for i, v := range vs {
					lines[i] = v.String()
				}
				t.Fatalf("live transport diverged from the sim engine: %d violations: %v", len(vs), lines)
			}
		})
	}
}

// TestCloseDrainsInFlightAdvance pins the Close race fix: Close from a
// second goroutine must drain a RunFor advancing jobs mid-flight instead
// of racing the tick callback (run under -race).
func TestCloseDrainsInFlightAdvance(t *testing.T) {
	// The subtest keeps the name of the one remaining engine.
	t.Run("tick", func(t *testing.T) {
		c, err := New(Config{System: Lassen, Nodes: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(job.Spec{App: "gemm", Nodes: 4, RepFactor: 10}); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			// A long advance with thousands of ticks in flight.
			c.RunFor(5 * time.Minute)
		}()
		c.Close()
		<-done
		// After Close, no engine callbacks may advance anything further.
		c.RunFor(10 * time.Second)
		if got := len(c.RunningJobs()); got != 0 {
			// The job may legitimately still be "running" if Close landed
			// before it finished — but its tick must be stopped, so stats
			// cannot move.
			st1, _ := c.Stats(1)
			c.RunFor(10 * time.Second)
			st2, _ := c.Stats(1)
			if st1.MaxNodePowerW != st2.MaxNodePowerW {
				t.Fatalf("job advanced after Close (power moved %v -> %v)", st1.MaxNodePowerW, st2.MaxNodePowerW)
			}
		}
	})
}
