package chaos_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/chaos"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/hw"
)

// The soak suites run N distinct seeded scenarios; every fault schedule
// derives deterministically from the seed, so a failing subtest reprints
// its seed and full plan and replays with the one-command repro line in
// the failure output.

const (
	simSoakSeeds  = 24
	liveSoakSeeds = 20
)

// soakFail formats the uniform failure report: what broke, the full plan
// for offline inspection, the injector's activity counters, and the
// exact command that replays this scenario.
func soakFail(t *testing.T, test string, seed int64, plan chaos.Plan, st chaos.Stats, format string, args ...any) {
	t.Helper()
	t.Fatalf("seed %d: %s\nplan: %s\ninjected: %+v\nrepro: go test -race -run '%s/seed=%d$' ./internal/flux/chaos",
		seed, fmt.Sprintf(format, args...), plan, st, test, seed)
}

func violationList(vs []chaos.Violation) string {
	lines := make([]string, len(vs))
	for i, v := range vs {
		lines[i] = "  " + v.String()
	}
	return strings.Join(lines, "\n")
}

// TestChaosSoakSim drives seeded chaos scenarios through simulated
// Lassen clusters of 8-64 nodes running the full power stack (monitor,
// manager, liveness) under a long job, then asserts every invariant
// after the faults clear.
func TestChaosSoakSim(t *testing.T) {
	for seed := int64(1); seed <= simSoakSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSimScenario(t, seed)
		})
	}
}

func runSimScenario(t *testing.T, seed int64) {
	size := 8 + int((seed*7)%57) // 8..64 nodes, spread across seeds
	plan := chaos.GeneratePlan(seed, int32(size), 80)
	inj := chaos.New(plan)
	fail := func(format string, args ...any) {
		t.Helper()
		soakFail(t, "TestChaosSoakSim", seed, plan, inj.Stats(), format, args...)
	}

	c, err := cluster.New(cluster.Config{
		System:      cluster.Lassen,
		Nodes:       size,
		Seed:        seed,
		WrapLink:    inj.WrapLink,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
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
		t.Fatalf("load liveness: %v", err)
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{
			SampleInterval: 2 * time.Second,
			CollectTimeout: 2 * time.Second,
		})
	}); err != nil {
		t.Fatalf("load monitor: %v", err)
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermgr.New(powermgr.Config{
			Policy:      powermgr.PolicyProportional,
			GlobalCapW:  float64(size) * 900,
			PushTimeout: 2 * time.Second,
		})
	}); err != nil {
		t.Fatalf("load manager: %v", err)
	}

	// A long job across most of the cluster so the monitor has live data
	// to aggregate while the fabric degrades; the manager pushes per-node
	// caps at every job start.
	mainNodes := size - 2
	id, err := c.Submit(job.Spec{Name: "chaos-main", App: "gemm", Nodes: mainNodes, RepFactor: 60})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	c.RunFor(10 * time.Second) // fault-free warm-up: samples + initial cap pushes

	inj.Arm()
	mon := powermon.NewClient(c.Inst.Root())
	var qOK, qPartial, qFailed int
	for round := 0; round < 12; round++ {
		c.RunFor(5 * time.Second)
		// Exercise the query path under fire; outcomes are recorded, not
		// asserted — degradation is expected, invariant breakage is not.
		ja, err := mon.QueryAggregateContext(context.Background(), id)
		switch {
		case err != nil:
			qFailed++
		case ja.Partial:
			qPartial++
		default:
			qOK++
		}
		// Periodic manager pushes under fire: small jobs on the two spare
		// nodes force setlimit RPCs while ranks crash and links drop.
		if round%4 == 1 {
			_, _ = c.Submit(job.Spec{Name: "chaos-filler", App: "gemm", Nodes: 2, RepFactor: 2})
		}
		// Mid-chaos conservation must hold no matter what is down: every
		// unreachable subtree is accounted in Missing, never dropped.
		if round%4 == 3 {
			res, err := live.Sweep(nil, 2*time.Second)
			if err != nil {
				fail("mid-chaos liveness sweep errored: %v", err)
			}
			if res.Ranks+res.Missing != size {
				fail("mid-chaos conservation: covered %d + missing %d != size %d",
					res.Ranks, res.Missing, size)
			}
			if res.Partial != (res.Missing > 0) {
				fail("mid-chaos partial flag: partial=%v missing=%d", res.Partial, res.Missing)
			}
		}
	}
	inj.Disarm()
	c.RunFor(15 * time.Second) // quiesce: every outstanding deadline fires

	if st := inj.Stats(); st.Sent == 0 {
		fail("scenario injected nothing (windows never overlapped traffic)")
	}
	vs := chaos.Check(chaos.CheckConfig{
		Brokers:  c.Inst.Brokers,
		Injector: inj,
		Liveness: live,
		Monitor:  true,
		Manager:  true,
		// Generous ack margin: an ack legitimately in flight when its rank
		// crashes can surface up to a delay-fault later.
		AckMarginSec:       0.3,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	})
	if len(vs) > 0 {
		fail("%d invariant violations after quiesce:\n%s", len(vs), violationList(vs))
	}
	t.Logf("seed %d: %d nodes, queries ok=%d partial=%d failed=%d, injected %+v",
		seed, size, qOK, qPartial, qFailed, inj.Stats())
}

// TestChaosSoakLive replays the same harness over real TCP sockets and
// wall-clock timers — the deployment transport — with compressed fault
// windows. Scenarios run in parallel; each gets its own ports, brokers
// and injector.
func TestChaosSoakLive(t *testing.T) {
	for seed := int64(101); seed < 101+liveSoakSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runLiveScenario(t, seed)
		})
	}
}

func runLiveScenario(t *testing.T, seed int64) {
	const size = 8
	plan := chaos.GeneratePlan(seed, size, 2.0)
	inj := chaos.New(plan)
	fail := func(format string, args ...any) {
		t.Helper()
		soakFail(t, "TestChaosSoakLive", seed, plan, inj.Stats(), format, args...)
	}

	nodes := make([]*hw.Node, size)
	for i := range nodes {
		n, err := hw.NewNode("chaoslive", hw.LassenConfig(), seed*131+int64(i))
		if err != nil {
			t.Fatalf("node: %v", err)
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
		t.Fatalf("live instance: %v", err)
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
		t.Fatalf("load liveness: %v", err)
	}
	if err := li.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{
			SampleInterval: 20 * time.Millisecond,
			CollectTimeout: 200 * time.Millisecond,
		})
	}); err != nil {
		t.Fatalf("load monitor: %v", err)
	}

	time.Sleep(150 * time.Millisecond) // fault-free warm-up: rings fill
	inj.Arm()
	for round := 0; round < 4; round++ {
		time.Sleep(400 * time.Millisecond)
		// Probe the collect path under fire (outcome unasserted) and check
		// conservation mid-chaos.
		rank := int32(1 + round%(size-1))
		_, _ = li.Root().CallTimeout(rank, "power-monitor.collect",
			map[string]float64{"start_sec": 0, "end_sec": 3600}, 200*time.Millisecond)
		res, err := live.Sweep(nil, 400*time.Millisecond)
		if err != nil {
			continue // the sweep itself may be collateral damage; Check retries clean
		}
		if res.Ranks+res.Missing != size {
			fail("mid-chaos conservation: covered %d + missing %d != size %d",
				res.Ranks, res.Missing, size)
		}
		if res.Partial != (res.Missing > 0) {
			fail("mid-chaos partial flag: partial=%v missing=%d", res.Partial, res.Missing)
		}
	}
	inj.Disarm()
	time.Sleep(900 * time.Millisecond) // quiesce: > CallTimeout + wheel backstop

	if st := inj.Stats(); st.Sent == 0 {
		fail("scenario injected nothing (windows never overlapped traffic)")
	}
	vs := chaos.Check(chaos.CheckConfig{
		Brokers:            li.Brokers,
		Injector:           inj,
		Liveness:           live,
		Monitor:            true,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	})
	if len(vs) > 0 {
		fail("%d invariant violations after quiesce:\n%s", len(vs), violationList(vs))
	}
}
