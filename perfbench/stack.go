package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/fanout"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/powerapi"
	"fluxpower/internal/query"
	"fluxpower/internal/sched"
	"fluxpower/internal/tsdb"
)

// The store-backed workloads run their tsdb stores with maintenance
// (fsync, compaction, GC) every ten simulated minutes and a WAL fsync
// every 1024 appends, instead of every 10 s and 64 appends. fsync on a
// shared virtual disk is heavy-tailed (p99 ~5 ms against a 0.1 ms
// median): at the defaults the hour of history alone issued ~23 000 of
// them, and set-up time and every read's wait behind the simulation
// varied twofold between identical runs. The store's own work — WAL
// encoding and appends, reads through the head and the WAL — still runs.
const (
	storeSyncInterval = 10 * time.Minute
	storeSyncEvery    = 1024
)

// stackConfig selects which of the paper's modules a workload loads on
// its simulated Lassen cluster.
type stackConfig struct {
	nodes int
	mon   powermon.Config
	// store gives every node-agent a durable tsdb store.
	store bool
	// budgetW > 0 loads the power manager (proportional sharing with the
	// closed loop retuning) and the power-aware dispatcher against the
	// same budget.
	budgetW float64
	// query loads the query engine on every rank.
	query bool
	// gateway starts a powerapi gateway on a fanout hub at the root.
	gateway bool
}

// stack is one built instance of the system under test.
type stack struct {
	c    *cluster.Cluster
	mons []*powermon.Module
	pm   *powermgr.Client
	hub  *fanout.Hub
	gw   *powerapi.Gateway
	dir  string
}

// buildStack constructs the cluster and loads the configured modules, as
// an operator would with `flux module load`. dir holds the tsdb stores.
func buildStack(sc stackConfig, seed int64, dir string, tr *tracer) (*stack, error) {
	cfg := cluster.Config{
		System:              cluster.Lassen,
		Nodes:               sc.nodes,
		Seed:                seed,
		MonitorOverheadFrac: -1, // the per-system default (§IV-B)
	}
	if sc.budgetW > 0 {
		cfg.SchedPolicy = sched.PolicyPowerAware
		cfg.SchedBudgetW = sc.budgetW
	}
	if tr != nil {
		cfg.WrapLink = tr.WrapLink
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &stack{c: c, dir: dir, mons: make([]*powermon.Module, sc.nodes)}
	mcfg := sc.mon
	if sc.store {
		mcfg.StoreDir = filepath.Join(dir, "store")
		mcfg.StoreSyncInterval = storeSyncInterval
		mcfg.Store.SyncEvery = storeSyncEvery
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		s.mons[rank] = powermon.New(mcfg)
		return s.mons[rank]
	}); err != nil {
		s.close()
		return nil, err
	}
	if sc.budgetW > 0 {
		if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
			return powermgr.New(powermgr.Config{
				Policy:     powermgr.PolicyProportional,
				GlobalCapW: sc.budgetW,
				Controller: powermgr.ControllerConfig{Mode: powermgr.ControllerRetune},
			})
		}); err != nil {
			s.close()
			return nil, err
		}
		s.pm = powermgr.NewClient(c.Inst.Root())
	}
	if sc.query {
		if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
			return query.New(query.Config{Source: func(r int32) query.Source { return s.mons[r] }})
		}); err != nil {
			s.close()
			return nil, err
		}
	}
	if sc.gateway {
		if s.hub, err = fanout.New(fanout.Config{Broker: c.Inst.Root()}); err != nil {
			s.close()
			return nil, err
		}
		if s.gw, err = powerapi.New(powerapi.Config{Hub: s.hub}); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close tears the stack down: gateway, hub, engine, then the monitor
// modules, whose shutdown closes the stores.
func (s *stack) close() {
	if s.gw != nil {
		s.gw.Close()
	}
	if s.hub != nil {
		s.hub.Close()
	}
	s.c.Close()
	_ = s.c.Inst.UnloadModuleAll(powermon.ModuleName) // only closes stores about to be deleted
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// sync runs fn with the cluster's single broker attachment held: under
// the gateway's upstream lock when a gateway shares the cluster,
// directly otherwise.
func (s *stack) sync(fn func()) {
	if s.gw != nil {
		s.gw.Sync(fn)
		return
	}
	fn()
}

// runFor advances simulated time by d inside a cluster.Cluster.RunFor span.
func (s *stack) runFor(tr *tracer, d time.Duration) {
	tr.call("cluster.Cluster.RunFor", "", func() { s.c.RunFor(d) })
}

// simSec is the current simulated time in seconds.
func (s *stack) simSec() float64 { return s.c.Now().Seconds() }

// submit sends a job through the root broker's job-manager client.
func (s *stack) submit(tr *tracer, spec job.Spec) (id uint64, err error) {
	tr.call("job.Client.Submit", spec.App, func() { id, err = s.c.JM.Submit(spec) })
	return id, err
}

// setupRepeated builds the stack reps times, closing all but the last,
// and returns it with the median build time. Collecting garbage between
// builds keeps one build's leftovers out of the next one's time and out
// of the peak heap, which is sampled from just before the last build.
func setupRepeated(reps int, base string, build func(dir string) (*stack, error)) (*stack, float64, *heapPeak, error) {
	var times []float64
	var s *stack
	var peak *heapPeak
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		settledHeap()
		if i == reps-1 {
			peak = startHeapPeak()
		}
		dir := filepath.Join(base, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, peak, err
		}
		t0 := time.Now()
		var err error
		s, err = build(dir)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, peak, err
		}
	}
	return s, median(times), peak, nil
}

// storeTotals sums every rank's tsdb health.
func (s *stack) storeTotals() (h tsdb.Health, ranks int) {
	for _, m := range s.mons {
		if sh, ok := m.StoreHealth(); ok {
			ranks++
			h.AppendedSamples += sh.AppendedSamples
			h.DurableSamples += sh.DurableSamples
			h.UnsyncedSamples += sh.UnsyncedSamples
			h.SealedBlocks += sh.SealedBlocks
			h.BytesOnDisk += sh.BytesOnDisk
		}
	}
	return h, ranks
}

// monitorSamples sums the sensor reads of every node-agent.
func (s *stack) monitorSamples() uint64 {
	var n uint64
	for _, m := range s.mons {
		n += m.Samples()
	}
	return n
}

// brokerTotals sums the broker.Health counters of every rank.
func (s *stack) brokerTotals() broker.Stats {
	var t broker.Stats
	for _, b := range s.c.Inst.Brokers {
		st := b.Health().Stats
		t.EventsPublished += st.EventsPublished
		t.EventsDelivered += st.EventsDelivered
		t.RPCsIssued += st.RPCsIssued
		t.RPCTimeouts += st.RPCTimeouts
		t.RoutingErrors += st.RoutingErrors
	}
	return t
}
