package experiments

import (
	"context"
	"math"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/transport"
)

func TestScaleReductionCutsRootBytes(t *testing.T) {
	res, err := Scale(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("quick sweep rows: %d", len(res.Rows))
	}
	prevRatio := 0.0
	for _, row := range res.Rows {
		if row.AggRootBytes == 0 || row.RawRootBytes == 0 {
			t.Fatalf("no traffic counted at %d nodes: %+v", row.Nodes, row)
		}
		// The reduction must beat the flat gather at every size...
		if row.ByteRatio <= 2 {
			t.Fatalf("%d nodes: byte ratio %.1f, want > 2", row.Nodes, row.ByteRatio)
		}
		// ...and by a margin that grows with the cluster: the flat gather
		// is O(N·samples) on the root link, the reduction O(aggregate).
		if row.ByteRatio <= prevRatio {
			t.Fatalf("byte ratio shrank with scale: %+v", res.Rows)
		}
		prevRatio = row.ByteRatio
		// The aggregate summarizes exactly the samples the raw path ships.
		if row.AggSamples != row.RawSamples {
			t.Fatalf("%d nodes: aggregate covered %d samples, raw shipped %d",
				row.Nodes, row.AggSamples, row.RawSamples)
		}
		// And it reports the same physics.
		if math.Abs(row.RawAvgW-row.AggAvgW) > 1e-6*row.RawAvgW {
			t.Fatalf("%d nodes: raw avg %.3f W vs aggregate avg %.3f W",
				row.Nodes, row.RawAvgW, row.AggAvgW)
		}
	}
	// Rendering sanity for the CLI registrations.
	if res.Render() == "" || res.RenderCSV() == "" {
		t.Fatal("empty rendering")
	}
}

// BenchmarkReduceVsFlatGather times a whole-cluster job power query on a
// 792-node Lassen-shaped instance (the paper's full machine): the flat
// raw-sample gather vs the in-network reduction, with the bytes crossing
// the root link reported alongside ns/op.
func BenchmarkReduceVsFlatGather(b *testing.B) {
	const nodes = 792
	var rootIngress []*transport.Counter
	c, err := cluster.New(cluster.Config{
		System: cluster.Lassen,
		Nodes:  nodes,
		Seed:   DefaultSeed,
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
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{})
	}); err != nil {
		b.Fatal(err)
	}
	id, err := c.Submit(job.Spec{App: "laghos", Nodes: nodes})
	if err != nil {
		b.Fatal(err)
	}
	if _, idle := c.RunUntilIdle(5 * time.Minute); !idle {
		b.Fatal("job never finished")
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

	b.Run("flat-raw", func(b *testing.B) {
		start := ingress()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.QueryContext(context.Background(), id); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ingress()-start)/float64(b.N), "rootB/op")
	})
	b.Run("reduce-aggregate", func(b *testing.B) {
		start := ingress()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ja, err := client.QueryAggregateContext(context.Background(), id)
			if err != nil {
				b.Fatal(err)
			}
			if ja.Partial {
				b.Fatal("healthy cluster answered partially")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ingress()-start)/float64(b.N), "rootB/op")
	})
}
