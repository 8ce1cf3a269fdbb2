package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/fanout"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/powerapi"
	"fluxpower/internal/tsdb"
)

// profiledLayers are the packages whose CPU share the traced run
// reports as <layer>.self_frac; "other" is everything outside
// fluxpower/internal plus internal packages not listed here.
var profiledLayers = []string{
	"cluster", "simtime", "hw", "apps", "broker", "transport", "msg",
	"job", "sched", "powermgr", "powermon", "ringbuf", "variorum",
	"tsdb", "query", "reduce", "powerapi", "fanout", "stats",
}

// snap is a point-in-time reading of every counter the per-layer report
// differences. Take it with the broker attachment held.
type snap struct {
	sim      float64
	brk      broker.Stats
	rt       runtimeSample
	samples  uint64
	store    tsdb.Health
	fan      fanout.Metrics
	gw       powerapi.Metrics
	ctl      powermgr.ControllerStatus
	sch      job.SchedStatus
	inactive int

	msgs                                [msg.TypeControl + 1]uint64
	bytes, rootBytes                    uint64
	queryRootBytes, queryReduces, limit uint64
}

func (s *stack) snapshot(tr *tracer) (snap, error) {
	sn := snap{
		sim:     s.simSec(),
		brk:     s.brokerTotals(),
		rt:      readRuntime(),
		samples: s.monitorSamples(),
	}
	sn.store, _ = s.storeTotals()
	if s.hub != nil {
		sn.fan = s.hub.Metrics()
	}
	if s.gw != nil {
		sn.gw = s.gw.Metrics()
	}
	if s.pm != nil {
		var err error
		if sn.ctl, err = s.pm.Controller(); err != nil {
			return sn, fmt.Errorf("controller status: %w", err)
		}
		if sn.sch, err = s.c.JM.Sched(); err != nil {
			return sn, fmt.Errorf("sched status: %w", err)
		}
	}
	recs, err := s.c.JM.List()
	if err != nil {
		return sn, fmt.Errorf("job list: %w", err)
	}
	for _, r := range recs {
		if r.State == job.StateInactive {
			sn.inactive++
		}
	}
	if tr != nil {
		tr.mu.Lock()
		sn.msgs = tr.msgs
		sn.bytes, sn.rootBytes = tr.bytes, tr.rootBytes
		sn.queryRootBytes, sn.queryReduces = tr.queryRootBytes, tr.queryReduces
		if st := tr.sends[sendKey{msg.TypeRequest, "power-manager.node.setlimit"}]; st != nil {
			sn.limit = st.Count
		}
		tr.mu.Unlock()
	}
	return sn, nil
}

// traceWindow is a traced run's measured window. Tracing — the tracer's
// spans and link hook, and a CPU profile of the process — is on during
// the traced chunks only (see tracedChunk), and the profiles of all of
// them are attributed together. A nil *traceWindow is the untraced run.
type traceWindow struct {
	tr   *tracer
	on   bool
	prof bytes.Buffer
	cpu  cpuAttribution
}

func newTraceWindow(tr *tracer) *traceWindow {
	if tr == nil {
		return nil
	}
	return &traceWindow{tr: tr, cpu: cpuAttribution{ByLayer: map[string]int64{}}}
}

// set switches tracing on or off.
func (w *traceWindow) set(on bool) error {
	if w == nil || on == w.on {
		return nil
	}
	w.on = on
	if on {
		w.prof.Reset()
		if err := pprof.StartCPUProfile(&w.prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		w.tr.on.Store(true)
		return nil
	}
	w.tr.on.Store(false)
	pprof.StopCPUProfile()
	a, err := attributeProfile(w.prof.Bytes())
	if err != nil {
		return err
	}
	w.cpu.Total += a.Total
	for l, n := range a.ByLayer {
		w.cpu.ByLayer[l] += n
	}
	return nil
}

// stop switches tracing off and returns the traced chunks' CPU profile
// (nil for the untraced run).
func (w *traceWindow) stop() (*cpuAttribution, error) {
	if w == nil {
		return nil, nil
	}
	if err := w.set(false); err != nil {
		return nil, err
	}
	return &w.cpu, nil
}

// setLayerMetrics reports the per-layer figures over [a, b], the traced
// run's window. The CPU profile and the counters of the tracer's link
// hook cover only its traced chunks, tracedSim of simulated time; the
// system's own counters cover the whole window. Layers a workload does
// not load read 0.
func setLayerMetrics(rep *report, s *stack, tr *tracer, a, b snap, prof *cpuAttribution, tracedSim time.Duration) {
	per := func(x float64) float64 {
		if dt := b.sim - a.sim; dt > 0 {
			return x / dt
		}
		return 0
	}
	perTraced := func(x float64) float64 {
		if dt := tracedSim.Seconds(); dt > 0 {
			return x / dt
		}
		return 0
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	frac := prof.Frac()
	for _, l := range append(profiledLayers, "other") {
		rep.set(l+".self_frac", "ratio", frac[l])
	}

	size := float64(s.c.NodeCount())
	published := float64(b.brk.EventsPublished - a.brk.EventsPublished)
	delivered := float64(b.brk.EventsDelivered - a.brk.EventsDelivered)
	rep.set("broker.events_published_per_sim_s", "1/sim-s", per(published))
	rep.set("broker.events_delivered_per_sim_s", "1/sim-s", per(delivered))
	rep.set("broker.event_delivery_ratio", "ratio", ratio(delivered, published*size))
	rep.set("broker.rpcs_per_sim_s", "1/sim-s", per(float64(b.brk.RPCsIssued-a.brk.RPCsIssued)))
	rep.set("broker.rpc_timeouts", "count", float64(b.brk.RPCTimeouts-a.brk.RPCTimeouts))
	rep.set("broker.routing_errors", "count", float64(b.brk.RoutingErrors-a.brk.RoutingErrors))

	rep.set("transport.msgs_per_sim_s.request", "1/sim-s", perTraced(float64(b.msgs[msg.TypeRequest]-a.msgs[msg.TypeRequest])))
	rep.set("transport.msgs_per_sim_s.response", "1/sim-s", perTraced(float64(b.msgs[msg.TypeResponse]-a.msgs[msg.TypeResponse])))
	rep.set("transport.msgs_per_sim_s.event", "1/sim-s", perTraced(float64(b.msgs[msg.TypeEvent]-a.msgs[msg.TypeEvent])))
	rep.set("transport.bytes_per_sim_s", "B/sim-s", perTraced(float64(b.bytes-a.bytes)))
	rep.set("transport.root_bytes_per_sim_s", "B/sim-s", perTraced(float64(b.rootBytes-a.rootBytes)))
	tr.mu.Lock()
	rep.set("transport.hop_self_us_p50", "us", tr.hopSelfUs.Quantile(0.5))
	tr.mu.Unlock()

	rep.set("job.finishes_per_sim_s", "1/sim-s", per(float64(b.inactive-a.inactive)))
	rep.set("sched.budget_trims", "count", float64(b.sch.BudgetTrims-a.sch.BudgetTrims))
	rep.set("powermgr.controller_rounds", "count", float64(b.ctl.Rounds-a.ctl.Rounds))
	rep.set("powermgr.retunes", "count", float64(b.ctl.Retunes-a.ctl.Retunes))
	rep.set("powermgr.limit_msgs_per_sim_s", "1/sim-s", perTraced(float64(b.limit-a.limit)))

	rep.set("powermon.samples_per_sim_s", "1/sim-s", per(float64(b.samples-a.samples)))
	appended := float64(b.store.AppendedSamples - a.store.AppendedSamples)
	rep.set("tsdb.appended_per_sim_s", "1/sim-s", per(appended))
	rep.set("tsdb.bytes_per_sample", "B", ratio(float64(b.store.BytesOnDisk), float64(b.store.AppendedSamples)))
	rep.set("tsdb.sealed_blocks", "count", float64(b.store.SealedBlocks))
	rep.set("reduce.root_bytes_per_query", "B", ratio(float64(b.queryRootBytes-a.queryRootBytes), float64(b.queryReduces-a.queryReduces)))

	frames := float64(b.fan.FramesAppended - a.fan.FramesAppended)
	deliveries := float64(b.fan.FramesDelivered - a.fan.FramesDelivered)
	rep.set("fanout.frames_per_sim_s", "1/sim-s", per(frames))
	rep.set("fanout.deliveries_per_sim_s", "1/sim-s", per(deliveries))
	rep.set("fanout.evictions", "count", float64(b.fan.Evictions-a.fan.Evictions))
	rep.set("fanout.sample_subs_per_ring", "ratio", ratio(float64(b.fan.SampleSubs), float64(b.fan.Rings)))
	rep.set("fanout.allocs_per_delivery", "count", ratio(float64(b.rt.allocObjects-a.rt.allocObjects), deliveries))

	hits := float64(b.gw.CacheHits - a.gw.CacheHits)
	misses := float64(b.gw.CacheMisses - a.gw.CacheMisses)
	requests := float64(b.gw.Requests - a.gw.Requests)
	rep.set("powerapi.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	rep.set("powerapi.coalesced", "count", float64(b.gw.Coalesced-a.gw.Coalesced))
	rep.set("powerapi.upstream_per_request", "ratio", ratio(float64(b.gw.UpstreamCalls-a.gw.UpstreamCalls), requests))

	rep.set("runtime.gc_cpu_frac", "ratio", ratio(b.rt.gcCPU-a.rt.gcCPU, b.rt.totalCPU-a.rt.totalCPU))
	rep.set("runtime.alloc_mb_per_sim_s", "MB/sim-s", per(float64(b.rt.allocBytes-a.rt.allocBytes)/1e6))
}

// perLayer are the metrics of traced runs, on every workload.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, l := range append(profiledLayers, "other") {
		out = append(out, metricSpec{l + ".self_frac", "ratio"})
	}
	return append(out, []metricSpec{
		{"cluster.running_jobs_avg", "count"},
		{"broker.events_published_per_sim_s", "1/sim-s"},
		{"broker.events_delivered_per_sim_s", "1/sim-s"},
		{"broker.event_delivery_ratio", "ratio"},
		{"broker.rpcs_per_sim_s", "1/sim-s"},
		{"broker.rpc_timeouts", "count"},
		{"broker.routing_errors", "count"},
		{"transport.msgs_per_sim_s.request", "1/sim-s"},
		{"transport.msgs_per_sim_s.response", "1/sim-s"},
		{"transport.msgs_per_sim_s.event", "1/sim-s"},
		{"transport.bytes_per_sim_s", "B/sim-s"},
		{"transport.root_bytes_per_sim_s", "B/sim-s"},
		{"transport.hop_self_us_p50", "us"},
		{"job.submit_p99_ms", "ms"},
		{"job.finishes_per_sim_s", "1/sim-s"},
		{"sched.budget_trims", "count"},
		{"sched.queue_depth_max", "count"},
		{"sim_jobs_per_h", "jobs/sim-h"},
		{"sim_wait_p50_s", "sim-s"},
		{"sim_wait_mean_s", "sim-s"},
		{"sim_sustained_violations", "count"},
		{"powermgr.controller_rounds", "count"},
		{"powermgr.retunes", "count"},
		{"powermgr.limit_msgs_per_sim_s", "1/sim-s"},
		{"powermon.samples_per_sim_s", "1/sim-s"},
		{"powermon.heap_bytes_per_node", "B"},
		{"powermon.query_agg_p50_ms", "ms"},
		{"powermon.collect_p50_ms", "ms"},
		{"tsdb.appended_per_sim_s", "1/sim-s"},
		{"tsdb.bytes_per_sample", "B"},
		{"tsdb.sealed_blocks", "count"},
		{"tsdb.store_answer_frac", "ratio"},
		{"query.eval_p50_ms.1m", "ms"},
		{"query.eval_p50_ms.10m", "ms"},
		{"query.eval_p50_ms.1h", "ms"},
		{"reduce.root_bytes_per_query", "B"},
		{"powerapi.cache_hit_ratio", "ratio"},
		{"powerapi.coalesced", "count"},
		{"powerapi.upstream_per_request", "ratio"},
		{"powerapi.route_p50_ms.jobagg", "ms"},
		{"powerapi.route_p50_ms.jobraw", "ms"},
		{"powerapi.route_p50_ms.node", "ms"},
		{"powerapi.route_p50_ms.query", "ms"},
		{"powerapi.generator_late_ms", "ms"},
		{"powerapi.http_p99_ms", "ms"},
		{"fanout.frames_per_sim_s", "1/sim-s"},
		{"fanout.deliveries_per_sim_s", "1/sim-s"},
		{"fanout.evictions", "count"},
		{"fanout.sample_subs_per_ring", "ratio"},
		{"fanout.allocs_per_delivery", "count"},
		{"fanout.sse_p99_ms", "ms"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.alloc_mb_per_sim_s", "MB/sim-s"},
		{"trace.host_cpu_ms_per_sim_s", "ms"},
		{"trace.overhead_cpu_ms_per_sim_s", "ms"},
	}...)
}()
