package experiments

import (
	"context"
	"fmt"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/transport"
)

// ScaleRow compares one cluster size: a whole-cluster job's power query
// answered by the paper's flat raw gather vs by in-network reduction.
type ScaleRow struct {
	Nodes int
	// RawRootBytes / AggRootBytes count the bytes arriving at rank 0 over
	// its TBON links during the query — the root link the paper worries
	// about at scale.
	RawRootBytes uint64
	AggRootBytes uint64
	// ByteRatio is RawRootBytes / AggRootBytes.
	ByteRatio float64
	// RawWallMs / AggWallMs are host wall-clock times to process the
	// query (the simulation is synchronous, so this is pure processing
	// and marshaling cost — it tracks payload volume).
	RawWallMs float64
	AggWallMs float64
	// RawSamples is how many raw samples the flat gather shipped;
	// AggSamples how many the aggregate summarized without shipping.
	RawSamples int
	AggSamples int
	// AvgNodePowerW from both paths, to show the aggregate loses nothing
	// the summary needs.
	RawAvgW float64
	AggAvgW float64
}

// ScaleResult is the root-link scaling comparison.
type ScaleResult struct {
	Rows []ScaleRow
}

// Scale sweeps cluster sizes up to Lassen's 792-node pool and, at each
// size, runs one whole-cluster job and asks for its power twice: once as
// the paper's flat raw-sample gather, once as the in-network aggregate.
// Both TBON links into rank 0 are wrapped with byte counters, so the rows
// report exactly what crosses the root link each way. The flat gather
// grows O(N · samples); the reduction stays O(aggregate), so the ratio
// grows with N.
func Scale(o Options) (*ScaleResult, error) {
	o = o.withDefaults()
	sizes := []int{8, 64, 256, 792}
	if o.Quick {
		sizes = []int{8, 32, 64}
	}
	res := &ScaleResult{}
	for _, n := range sizes {
		row, err := scaleOne(n, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("scale: %d nodes: %w", n, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func scaleOne(nodes int, seed int64) (ScaleRow, error) {
	row := ScaleRow{Nodes: nodes}
	// Count every byte arriving at rank 0 over the TBON.
	var rootIngress []*transport.Counter
	c, err := cluster.New(cluster.Config{
		System: cluster.Lassen,
		Nodes:  nodes,
		Seed:   seed,
		WrapLink: func(from, to int32, l transport.Link) transport.Link {
			if to != 0 {
				return l
			}
			ctr := transport.NewCounter(l)
			rootIngress = append(rootIngress, ctr)
			return ctr
		},
	})
	if err != nil {
		return row, err
	}
	defer c.Close()
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{})
	}); err != nil {
		return row, err
	}
	id, err := c.Submit(job.Spec{App: "laghos", Nodes: nodes})
	if err != nil {
		return row, err
	}
	if _, idle := c.RunUntilIdle(5 * time.Minute); !idle {
		return row, fmt.Errorf("job never finished")
	}
	ingress := func() uint64 {
		var total uint64
		for _, ctr := range rootIngress {
			_, bytes := ctr.Stats()
			total += bytes
		}
		return total
	}
	client := powermon.NewClient(c.Inst.Root())

	before := ingress()
	start := time.Now()
	jp, err := client.QueryContext(context.Background(), id)
	if err != nil {
		return row, err
	}
	row.RawWallMs = float64(time.Since(start)) / float64(time.Millisecond)
	row.RawRootBytes = ingress() - before
	sum, err := powermon.Summarize(jp)
	if err != nil {
		return row, err
	}
	row.RawAvgW = sum.AvgNodePowerW
	for _, node := range jp.Nodes {
		row.RawSamples += len(node.Samples)
	}

	before = ingress()
	start = time.Now()
	ja, err := client.QueryAggregateContext(context.Background(), id)
	if err != nil {
		return row, err
	}
	row.AggWallMs = float64(time.Since(start)) / float64(time.Millisecond)
	row.AggRootBytes = ingress() - before
	if ja.Partial || ja.NodesReporting != nodes {
		return row, fmt.Errorf("healthy cluster answered partially: %+v", ja)
	}
	row.AggAvgW = ja.AvgNodePowerW
	row.AggSamples = ja.SampleCount
	if row.AggRootBytes > 0 {
		row.ByteRatio = float64(row.RawRootBytes) / float64(row.AggRootBytes)
	}
	return row, nil
}

func (r *ScaleResult) tabular() ([]string, [][]string) {
	f0 := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	f1 := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			f0(float64(row.Nodes)),
			f0(float64(row.RawSamples)),
			f1(float64(row.RawRootBytes) / 1024),
			f1(float64(row.AggRootBytes) / 1024),
			f1(row.ByteRatio),
			f2(row.RawWallMs),
			f2(row.AggWallMs),
			f1(row.RawAvgW),
			f1(row.AggAvgW),
		})
	}
	return []string{"nodes", "samples", "raw_root_KiB", "agg_root_KiB", "byte_ratio",
		"raw_ms", "agg_ms", "raw_avg_W", "agg_avg_W"}, rows
}

// Render prints the scaling comparison.
func (r *ScaleResult) Render() string {
	header, rows := r.tabular()
	return "Scale: whole-cluster job power query, flat raw gather vs in-network reduction\n" +
		table(header, rows) +
		"raw ships every sample over the root link (O(N·samples)); the reduction merges\n" +
		"per-subtree aggregates at each TBON rank, so the root sees O(aggregate).\n"
}

// RenderCSV emits the comparison as CSV for plotting.
func (r *ScaleResult) RenderCSV() string {
	header, rows := r.tabular()
	return csvTable(header, rows)
}
