package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/chaos"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/hw"
	"fluxpower/internal/tsdb"
)

// The heal soaks rerun the chaos harness with the self-healing TBON
// enabled and raise the bar: degradation under fire is still fine, but
// after the faults clear every query must converge back to full
// coverage (Partial=false, zero missing subtrees) and the healed
// topology must satisfy the heal invariants — not merely "no worse than
// before the faults".

const (
	healSimSoakSeeds  = 12
	healLiveSoakSeeds = 6
)

// healSim is the heartbeat config for simulated soaks: fast enough that
// a fault window several seconds long sees detection, reattach and
// rejoin, slow enough that heartbeats stay a small fraction of traffic.
func healSim() *broker.HealConfig {
	return &broker.HealConfig{Interval: 100 * time.Millisecond, MissThreshold: 3}
}

// healConsistent reports whether the instance's heal accounting is
// momentarily self-consistent: every rank is claimed by at most one
// parent, that parent is the one the rank itself names, and each
// parent's recorded subtree size for a child matches the child's own
// count. Mid-chaos conservation is exact only in such states — while a
// move or a lost delta is still settling (the anti-entropy window), a
// whole-instance sweep legally double- or under-counts the subtree in
// motion, so the soaks assert exact conservation only on consistent
// snapshots. The post-quiesce Check demands consistency itself.
func healConsistent(brokers []*broker.Broker) bool {
	owner := make(map[int32]int32, len(brokers))
	for _, b := range brokers {
		for _, c := range b.Children() {
			if _, dup := owner[c]; dup {
				return false
			}
			owner[c] = b.Rank()
			if b.ChildSubtreeCount(c) != brokers[c].SubtreeCount() {
				return false
			}
		}
	}
	for r := 1; r < len(brokers); r++ {
		if own, ok := owner[int32(r)]; ok && own != brokers[r].CurrentParent() {
			return false
		}
	}
	return true
}

// healEpoch fingerprints the instance's membership state: any completed
// reattach, prune, or delta application anywhere moves it. Wall-clock
// runs need it in addition to healConsistent — a heal can start and
// finish entirely inside one sweep, leaving both endpoint snapshots
// consistent while the sweep itself straddled the move.
func healEpoch(brokers []*broker.Broker) uint64 {
	var e uint64 = 1469598103934665603
	for _, b := range brokers {
		e = (e ^ b.Reattaches()) * 1099511628211
		e = (e ^ uint64(b.SubtreeCount())) * 1099511628211
	}
	return e
}

// TestHealChaosSim drives the seeded chaos scenarios through simulated
// clusters with healing on. Mid-chaos the usual conservation invariants
// must hold; after Disarm and a quiesce the stricter convergence checks
// apply: zero missing ranks, consistent parent/child topology, and the
// job-power query path back to complete answers.
func TestHealChaosSim(t *testing.T) {
	for seed := int64(201); seed < 201+healSimSoakSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runHealSimScenario(t, seed)
		})
	}
}

func runHealSimScenario(t *testing.T, seed int64) {
	size := 8 + int((seed*7)%57) // 8..64 nodes, spread across seeds
	plan := chaos.GeneratePlan(seed, int32(size), 80)
	inj := chaos.New(plan)
	fail := func(format string, args ...any) {
		t.Helper()
		soakFail(t, "TestHealChaosSim", seed, plan, inj.Stats(), format, args...)
	}

	c, err := cluster.New(cluster.Config{
		System:      cluster.Lassen,
		Nodes:       size,
		Seed:        seed,
		WrapLink:    inj.WrapLink,
		CallTimeout: 2 * time.Second,
		Heal:        healSim(),
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

	id, err := c.Submit(job.Spec{Name: "heal-main", App: "gemm", Nodes: size - 2, RepFactor: 60})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	c.RunFor(10 * time.Second) // fault-free warm-up

	inj.Arm()
	mon := powermon.NewClient(c.Inst.Root())
	var qOK, qPartial, qFailed int
	for round := 0; round < 12; round++ {
		c.RunFor(5 * time.Second)
		ja, err := mon.QueryAggregateContext(context.Background(), id)
		switch {
		case err != nil:
			qFailed++
		case ja.Partial:
			qPartial++
		default:
			qOK++
		}
		// Conservation must hold mid-heal exactly as it does mid-crash:
		// detached subtrees are accounted through the root's membership
		// gap, never silently dropped. Snapshots caught mid-move (a heal
		// still settling) are skipped; no virtual time passes during a
		// sim sweep, so a consistent entry state cannot mutate under it.
		if round%4 == 3 {
			if !healConsistent(c.Inst.Brokers) {
				continue
			}
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
	// Quiesce long enough for outstanding deadlines to fire AND for the
	// heal to finish converging: revived ranks rejoin, stale child claims
	// are pruned, membership deltas reach the root.
	c.RunFor(15 * time.Second)

	if st := inj.Stats(); st.Sent == 0 {
		fail("scenario injected nothing (windows never overlapped traffic)")
	}
	// Convergence, not just survival: full coverage is back.
	res, err := live.Sweep(nil, 2*time.Second)
	if err != nil {
		fail("post-heal liveness sweep errored: %v", err)
	}
	if res.Missing != 0 || res.Partial {
		fail("post-heal sweep did not converge: ranks=%d missing=%d partial=%v",
			res.Ranks, res.Missing, res.Partial)
	}
	ja, err := mon.QueryAggregateContext(context.Background(), id)
	if err != nil {
		fail("post-heal aggregate query errored: %v", err)
	}
	if ja.Partial {
		fail("post-heal aggregate still partial: %+v", ja)
	}
	vs := chaos.Check(chaos.CheckConfig{
		Brokers:            c.Inst.Brokers,
		Injector:           inj,
		Liveness:           live,
		Monitor:            true,
		Heal:               true,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	})
	if len(vs) > 0 {
		fail("%d invariant violations after heal quiesce:\n%s", len(vs), violationList(vs))
	}
	t.Logf("seed %d: %d nodes, queries ok=%d partial=%d failed=%d, injected %+v",
		seed, size, qOK, qPartial, qFailed, inj.Stats())
}

// TestHealChaosLive replays the heal soak over real TCP sockets and
// wall-clock heartbeats: orphans dial their ancestors through actual
// listeners, and the convergence invariants must still hold after the
// faults clear.
func TestHealChaosLive(t *testing.T) {
	for seed := int64(301); seed < 301+healLiveSoakSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runHealLiveScenario(t, seed)
		})
	}
}

func runHealLiveScenario(t *testing.T, seed int64) {
	const size = 8
	plan := chaos.GeneratePlan(seed, size, 2.0)
	inj := chaos.New(plan)
	fail := func(format string, args ...any) {
		t.Helper()
		soakFail(t, "TestHealChaosLive", seed, plan, inj.Stats(), format, args...)
	}

	nodes := make([]*hw.Node, size)
	for i := range nodes {
		n, err := hw.NewNode("heallive", hw.LassenConfig(), seed*131+int64(i))
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
		Heal:        &broker.HealConfig{Interval: 30 * time.Millisecond, MissThreshold: 3},
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

	time.Sleep(150 * time.Millisecond) // fault-free warm-up: heartbeats settle
	inj.Arm()
	for round := 0; round < 4; round++ {
		time.Sleep(400 * time.Millisecond)
		// Wall-clock heals can fire mid-sweep, so the exact assertion
		// needs a consistent snapshot on both sides AND an unchanged
		// membership epoch across the sweep.
		if !healConsistent(li.Brokers) {
			continue
		}
		e0 := healEpoch(li.Brokers)
		res, err := live.Sweep(nil, 400*time.Millisecond)
		if err != nil {
			continue // the sweep itself may be collateral damage
		}
		if healEpoch(li.Brokers) != e0 || !healConsistent(li.Brokers) {
			continue
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
	// Quiesce covers outstanding deadlines plus full heal convergence at
	// the 30ms heartbeat: detection (~90ms), reattach, prune of stale
	// claims, and the wall-timer wheel's backstop granularity.
	time.Sleep(1200 * time.Millisecond)

	if st := inj.Stats(); st.Sent == 0 {
		fail("scenario injected nothing (windows never overlapped traffic)")
	}
	res, err := live.Sweep(nil, 2*time.Second)
	if err != nil {
		fail("post-heal liveness sweep errored: %v", err)
	}
	if res.Missing != 0 || res.Partial {
		fail("post-heal sweep did not converge: ranks=%d missing=%d partial=%v",
			res.Ranks, res.Missing, res.Partial)
	}
	vs := chaos.Check(chaos.CheckConfig{
		Brokers:            li.Brokers,
		Injector:           inj,
		Liveness:           live,
		Heal:               true,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	})
	if len(vs) > 0 {
		fail("%d invariant violations after heal quiesce:\n%s", len(vs), violationList(vs))
	}
}

// TestHealCrashNewParentMidHandoff kills an interior rank, lets its
// orphans hand their subtree state to the grandparent, then kills the
// grandparent — the new parent — right after it took over. The orphans
// must walk further up the ancestor chain and end under the root, with
// the membership accounting exact for both permanently-dead ranks.
func TestHealCrashNewParentMidHandoff(t *testing.T) {
	const size = 15 // fanout 2: 1 has {3,4}, 3 has {7,8}
	plan := chaos.Plan{
		Seed: 1,
		Nodes: []chaos.NodeRule{
			// Rank 3 dies first; its orphans 7 and 8 reattach to 1.
			{Rank: 3, Kind: chaos.FaultCrash, Window: chaos.Window{StartSec: 5}},
			// Then the adopter dies mid-handoff, before the moved subtree
			// has settled; 7 and 8 (and 1's own child 4) walk up to 0.
			{Rank: 1, Kind: chaos.FaultCrash, Window: chaos.Window{StartSec: 5.6}},
		},
	}
	inj := chaos.New(plan)
	c, err := cluster.New(cluster.Config{
		System:      cluster.Lassen,
		Nodes:       size,
		Seed:        1,
		WrapLink:    inj.WrapLink,
		CallTimeout: 2 * time.Second,
		Heal:        healSim(),
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
	c.RunFor(5 * time.Second)
	if res, err := live.Sweep(nil, 2*time.Second); err != nil || res.Partial {
		t.Fatalf("steady state not full: %+v err=%v", res, err)
	}

	inj.Arm()
	c.RunFor(500 * time.Millisecond)
	// The first handoff has happened: the orphans moved under rank 1.
	for _, orphan := range []int32{7, 8} {
		if got := c.Inst.Broker(orphan).CurrentParent(); got != 1 {
			t.Fatalf("rank %d parent = %d before the second crash, want 1", orphan, got)
		}
	}

	c.RunFor(15 * time.Second) // second crash fires at 5.6s, then converges

	for _, orphan := range []int32{4, 7, 8} {
		if got := c.Inst.Broker(orphan).CurrentParent(); got != 0 {
			t.Errorf("rank %d parent = %d after adopter crash, want 0", orphan, got)
		}
	}
	if n := c.Inst.Root().SubtreeCount(); n != size-2 {
		t.Errorf("root subtree covers %d ranks, want %d (all but the two dead)", n, size-2)
	}
	res, err := live.Sweep(nil, 2*time.Second)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.Ranks != size-2 || res.Missing != 2 || !res.Partial {
		t.Errorf("sweep = ranks %d missing %d partial %v, want %d/2/true",
			res.Ranks, res.Missing, res.Partial, size-2)
	}
	vs := chaos.Check(chaos.CheckConfig{
		Brokers:           c.Inst.Brokers,
		Injector:          inj,
		Liveness:          live,
		Heal:              true,
		HealExpectMissing: 2,
		RPCTimeout:        2 * time.Second,
	})
	if len(vs) > 0 {
		t.Fatalf("%d violations with permanently-dead adopter:\n%s", len(vs), violationList(vs))
	}
}

// TestHealCoverageByteIdentical is the crash-restart soak for the
// telemetry plane: a rank crashes, its subtree heals away and back, and
// the archive plus durable-store history over the pre-crash window must
// come back byte-identical — reattaching a subtree may never lose or
// reorder a sample that was already collected.
func TestHealCoverageByteIdentical(t *testing.T) {
	const size = 7
	const warmSec = 603 // ~300 samples per rank at 2s; store blocks seal
	dir := t.TempDir()
	plan := chaos.Plan{
		Seed: 2,
		Nodes: []chaos.NodeRule{
			// Crash-then-restart of interior rank 1 right after the
			// snapshot: orphans 3,4 move to 0, then 1 revives and rejoins.
			{Rank: 1, Kind: chaos.FaultCrash, Window: chaos.Window{StartSec: warmSec + 0.5, EndSec: warmSec + 6.5}},
		},
	}
	inj := chaos.New(plan)
	c, err := cluster.New(cluster.Config{
		System:      cluster.Lassen,
		Nodes:       size,
		Seed:        2,
		WrapLink:    inj.WrapLink,
		CallTimeout: 2 * time.Second,
		Heal:        healSim(),
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
			BufferSamples:  64, // tiny ring: history must come from the store
			StoreDir:       dir,
			Store:          tsdb.Config{BlockSamples: 256, SyncEvery: 16},
		})
	}); err != nil {
		t.Fatalf("load monitor: %v", err)
	}

	c.RunFor(warmSec * time.Second)
	endSec := c.Sched.Now().Seconds()
	pre := make([][]byte, size)
	collect := func(rank int32) []byte {
		t.Helper()
		resp, err := c.Inst.Root().CallTimeout(rank, "power-monitor.collect",
			map[string]float64{"start_sec": 0, "end_sec": endSec}, 2*time.Second)
		if err != nil {
			t.Fatalf("collect rank %d: %v", rank, err)
		}
		var ns powermon.NodeSamples
		if err := resp.Unmarshal(&ns); err != nil {
			t.Fatalf("collect decode rank %d: %v", rank, err)
		}
		raw, err := json.Marshal(ns.Samples)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for r := int32(0); r < size; r++ {
		pre[r] = collect(r)
	}

	inj.Arm()
	c.RunFor(20 * time.Second) // crash at +0.5s, heal away, restart at +6.5s, rejoin
	inj.Disarm()
	c.RunFor(15 * time.Second)

	res, err := live.Sweep(nil, 2*time.Second)
	if err != nil || res.Missing != 0 || res.Partial {
		t.Fatalf("coverage did not converge after restart: %+v err=%v", res, err)
	}
	for r := int32(0); r < size; r++ {
		if post := collect(r); !bytes.Equal(post, pre[r]) {
			t.Errorf("rank %d: pre-crash history changed across the heal (%d -> %d bytes)",
				r, len(pre[r]), len(post))
		}
	}
	vs := chaos.Check(chaos.CheckConfig{
		Brokers:            c.Inst.Brokers,
		Injector:           inj,
		Liveness:           live,
		Monitor:            true,
		Store:              true,
		Heal:               true,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	})
	if len(vs) > 0 {
		t.Fatalf("%d violations after crash-restart heal:\n%s", len(vs), violationList(vs))
	}
}
