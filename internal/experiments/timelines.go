package experiments

import (
	"context"
	"fmt"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/flux/job"
)

// TimelineResult is a single-node power timeline for any catalog
// application — the generalization of Figure 1 to the workloads the paper
// discusses but does not plot ("We don't show these timelines here due to
// lack of space", §II-D).
type TimelineResult struct {
	App    string
	System cluster.System
	Points []TimelinePoint
}

// Timeline runs one application on a single node and returns its monitor
// timeline. sizeFactor stretches short reference runs so several phases
// are visible.
func Timeline(opts Options, system cluster.System, app string, sizeFactor float64) (*TimelineResult, error) {
	opts = opts.withDefaults()
	e, err := newEnv(envConfig{
		system:      system,
		nodes:       1,
		seed:        opts.Seed,
		withMonitor: true,
	})
	if err != nil {
		return nil, err
	}
	defer e.close()
	id, err := e.c.Submit(job.Spec{App: app, Nodes: 1, SizeFactor: sizeFactor})
	if err != nil {
		return nil, err
	}
	if _, idle := e.c.RunUntilIdle(2 * time.Hour); !idle {
		return nil, fmt.Errorf("timeline: %s did not finish", app)
	}
	jp, err := e.mon.QueryContext(context.Background(), id)
	if err != nil {
		return nil, err
	}
	return &TimelineResult{App: app, System: system, Points: timelineFor(jp, 0)}, nil
}

// AllTimelines produces the five-application set the paper describes:
// flat LAMMPS/GEMM/NQueens, periodic Quicksilver, minor-phase Laghos.
func AllTimelines(opts Options) ([]*TimelineResult, error) {
	specs := []struct {
		app  string
		size float64
	}{
		{"lammps", 1},
		{"gemm", 0.3},
		{"quicksilver", 10},
		{"laghos", 10},
		{"nqueens", 0.5},
	}
	var out []*TimelineResult
	for _, s := range specs {
		r, err := Timeline(opts, cluster.Lassen, s.app, s.size)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Render prints the timeline.
func (r *TimelineResult) Render() string {
	return fmt.Sprintf("%s on %s (1 node):\n", r.App, r.System) + renderTimeline(r.Points)
}
