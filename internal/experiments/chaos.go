package experiments

import (
	"context"
	"fmt"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/chaos"
	"fluxpower/internal/flux/job"
)

// ChaosRow is one point of the fault-probability sweep: how the power
// query plane degrades as the TBON fabric loses messages.
type ChaosRow struct {
	DropProb float64
	// Queries is the number of aggregate power queries issued under fire;
	// OK answered completely, Partial answered with unreachable subtrees
	// flagged, Failed did not answer at all.
	Queries int
	OK      int
	Partial int
	Failed  int
	// AvgMissing is the mean number of ranks a liveness sweep reported
	// unreachable while faults were active.
	AvgMissing float64
	// Violations counts invariants broken after the faults cleared and the
	// system quiesced — the production-grade bar is zero at every loss
	// rate: degraded answers are acceptable, leaked state is not.
	Violations int
}

// ChaosResult is the fault-injection sweep over drop probabilities.
type ChaosResult struct {
	Nodes int
	Rows  []ChaosRow
}

// Chaos sweeps per-message drop probability on every TBON link of a
// monitored 16-node Lassen cluster and measures, at each loss rate, the
// query plane's success/partial/failure split — then asserts the chaos
// invariants (no leaked matchtags, reduce conservation, archive
// monotonicity) once the faults clear. It is the CLI face of the chaos
// harness in internal/flux/chaos.
func Chaos(o Options) (*ChaosResult, error) {
	o = o.withDefaults()
	probs := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4}
	rounds := 15
	if o.Quick {
		probs = []float64{0, 0.05, 0.2}
		rounds = 8
	}
	res := &ChaosResult{Nodes: 16}
	for i, p := range probs {
		row, err := chaosOne(res.Nodes, o.Seed+int64(i), p, rounds)
		if err != nil {
			return nil, fmt.Errorf("chaos: drop %.2f: %w", p, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func chaosOne(nodes int, seed int64, dropProb float64, rounds int) (ChaosRow, error) {
	row := ChaosRow{DropProb: dropProb}
	plan := chaos.Plan{Seed: seed}
	if dropProb > 0 {
		plan.Links = []chaos.LinkRule{{
			From: chaos.AnyRank, To: chaos.AnyRank, DropProb: dropProb,
		}}
	}
	inj := chaos.New(plan)
	c, err := cluster.New(cluster.Config{
		System:      cluster.Lassen,
		Nodes:       nodes,
		Seed:        seed,
		WrapLink:    inj.WrapLink,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		return row, err
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
		return row, err
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{
			SampleInterval: 2 * time.Second,
			CollectTimeout: 2 * time.Second,
		})
	}); err != nil {
		return row, err
	}
	id, err := c.Submit(job.Spec{Name: "chaos-sweep", App: "gemm", Nodes: nodes, RepFactor: 40})
	if err != nil {
		return row, err
	}
	c.RunFor(10 * time.Second) // fault-free warm-up

	inj.Arm()
	mon := powermon.NewClient(c.Inst.Root())
	missingSum := 0
	for r := 0; r < rounds; r++ {
		c.RunFor(4 * time.Second)
		ja, err := mon.QueryAggregateContext(context.Background(), id)
		row.Queries++
		switch {
		case err != nil:
			row.Failed++
		case ja.Partial:
			row.Partial++
		default:
			row.OK++
		}
		if res, err := live.Sweep(nil, 2*time.Second); err == nil {
			missingSum += res.Missing
		}
	}
	row.AvgMissing = float64(missingSum) / float64(rounds)
	inj.Disarm()
	c.RunFor(10 * time.Second)
	row.Violations = len(chaos.Check(chaos.CheckConfig{
		Brokers:            c.Inst.Brokers,
		Injector:           inj,
		Liveness:           live,
		Monitor:            true,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	}))
	return row, nil
}

func (r *ChaosResult) tabular() ([]string, [][]string) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", row.DropProb),
			fmt.Sprintf("%d", row.Queries),
			fmt.Sprintf("%d", row.OK),
			fmt.Sprintf("%d", row.Partial),
			fmt.Sprintf("%d", row.Failed),
			fmt.Sprintf("%.1f", row.AvgMissing),
			fmt.Sprintf("%d", row.Violations),
		})
	}
	return []string{"drop_prob", "queries", "ok", "partial", "failed",
		"avg_missing_ranks", "violations"}, rows
}

// Render prints the sweep.
func (r *ChaosResult) Render() string {
	header, rows := r.tabular()
	return fmt.Sprintf("Chaos: aggregate power queries on a %d-node TBON vs per-link drop probability\n", r.Nodes) +
		table(header, rows) +
		"partial answers flag their unreachable subtrees explicitly (reduce conservation);\n" +
		"violations counts invariants broken after faults clear — the bar is zero.\n"
}

// RenderCSV emits the sweep as CSV for plotting.
func (r *ChaosResult) RenderCSV() string {
	header, rows := r.tabular()
	return csvTable(header, rows)
}
