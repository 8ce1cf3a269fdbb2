// Package experiments regenerates every table and figure in the paper's
// evaluation (§IV). Each experiment builds the exact scenario the paper
// describes — system, node counts, applications, scaling factors, power
// policies — runs it on the simulated cluster, and reports rows/series in
// the same shape the paper prints.
//
// Absolute numbers come from the calibrated models in internal/apps and
// internal/hw; the assertions that matter (and that the test suite pins)
// are the paper's qualitative results: who wins, by roughly what factor,
// and where the crossovers fall. EXPERIMENTS.md records paper-vs-measured
// for every entry.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/simtime"
)

// Options are shared experiment knobs.
type Options struct {
	// Seed drives all randomness; fixed default keeps published outputs
	// reproducible.
	Seed int64
	// Quick shrinks repetition counts for fast CI runs where the
	// experiment allows it.
	Quick bool
}

// DefaultSeed is used by the CLI and benchmarks.
const DefaultSeed = 20240601

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	return o
}

// env is a monitored (and optionally managed) cluster ready to run jobs.
type env struct {
	c   *cluster.Cluster
	mon *powermon.Client
	pm  *powermgr.Client
}

// envConfig assembles a cluster with the power modules loaded.
type envConfig struct {
	system       cluster.System
	nodes        int
	seed         int64
	jitter       bool
	sensorNoiseW float64
	withMonitor  bool
	manager      *powermgr.Config // nil = no manager
	monitorCfg   powermon.Config
	overheadFrac float64 // <0 selects per-system default
	schedPolicy  string  // "" = FCFS
	schedBudgetW float64 // 0 = node-count admission only
}

func newEnv(cfg envConfig) (*env, error) {
	overhead := cfg.overheadFrac
	c, err := cluster.New(cluster.Config{
		System:              cfg.system,
		Nodes:               cfg.nodes,
		Seed:                cfg.seed,
		Jitter:              cfg.jitter,
		SensorNoiseW:        cfg.sensorNoiseW,
		MonitorOverheadFrac: overhead,
		SchedPolicy:         cfg.schedPolicy,
		SchedBudgetW:        cfg.schedBudgetW,
	})
	if err != nil {
		return nil, err
	}
	e := &env{c: c}
	if cfg.withMonitor {
		if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
			return powermon.New(cfg.monitorCfg)
		}); err != nil {
			return nil, err
		}
		e.mon = powermon.NewClient(c.Inst.Root())
	}
	if cfg.manager != nil {
		mcfg := *cfg.manager
		if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
			return powermgr.New(mcfg)
		}); err != nil {
			return nil, err
		}
		e.pm = powermgr.NewClient(c.Inst.Root())
	}
	return e, nil
}

func (e *env) close() { e.c.Close() }

// runJob submits one job and runs the cluster until it drains, returning
// ground-truth stats and the monitor's view (when loaded).
func (e *env) runJob(spec job.Spec, limit time.Duration) (cluster.JobStats, *powermon.Summary, error) {
	id, err := e.c.Submit(spec)
	if err != nil {
		return cluster.JobStats{}, nil, err
	}
	if _, idle := e.c.RunUntilIdle(limit); !idle {
		return cluster.JobStats{}, nil, fmt.Errorf("experiments: job %q did not finish within %v", spec.App, limit)
	}
	st, ok := e.c.Stats(id)
	if !ok {
		return cluster.JobStats{}, nil, fmt.Errorf("experiments: no stats for job %d", id)
	}
	if e.mon == nil {
		return st, nil, nil
	}
	jp, err := e.mon.QueryContext(context.Background(), id)
	if err != nil {
		return st, nil, err
	}
	sum, err := powermon.Summarize(jp)
	if err != nil {
		return st, nil, err
	}
	return st, &sum, nil
}

// TimelinePoint is one sample of a node-power timeline (figures 1, 5-7).
type TimelinePoint struct {
	TimeSec  float64
	NodeW    float64
	CPUW     float64 // all sockets
	MemW     float64 // -1 when unsupported
	GPU0W    float64 // first GPU sensor
	TotalGPU float64
}

// timelineFor extracts one node's series from a monitor query.
func timelineFor(jp powermon.JobPower, rank int32) []TimelinePoint {
	var out []TimelinePoint
	for _, n := range jp.Nodes {
		if n.Rank != rank {
			continue
		}
		for _, s := range n.Samples {
			p := TimelinePoint{
				TimeSec:  s.Timestamp - jp.StartSec,
				NodeW:    s.TotalWatts(),
				CPUW:     s.CPUWatts(),
				MemW:     s.MemWatts(),
				TotalGPU: s.TotalGPUWatts(),
			}
			if len(s.GPUWatts) > 0 {
				p.GPU0W = s.GPUWatts[0]
			}
			out = append(out, p)
		}
	}
	return out
}

// clusterPowerSampler records total cluster power every interval,
// mirroring how Table III's max/avg cluster power was measured ("summed
// across all nodes at all points in time when sampled every 2 seconds").
type clusterPowerSampler struct {
	samples []float64
	timer   *simtime.Timer
}

func sampleClusterPower(c *cluster.Cluster, every time.Duration) *clusterPowerSampler {
	s := &clusterPowerSampler{}
	s.timer = c.Sched.TickEvery(every, func(simtime.Time) {
		s.samples = append(s.samples, c.TotalPowerW())
	})
	return s
}

func (s *clusterPowerSampler) stop() { s.timer.Stop() }

func (s *clusterPowerSampler) maxAvg() (maxW, avgW float64) {
	if len(s.samples) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, v := range s.samples {
		sum += v
		if v > maxW {
			maxW = v
		}
	}
	return maxW, sum / float64(len(s.samples))
}

// csvTable renders header+rows as RFC-4180-ish CSV for plotting scripts.
func csvTable(header []string, rows [][]string) string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			b.WriteString(cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// table renders rows with aligned columns for CLI output.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
