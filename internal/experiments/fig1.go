package experiments

import (
	"context"
	"fmt"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/flux/job"
)

// Fig1Result reproduces Figure 1: single-node Lassen power timelines for
// LAMMPS (flat, compute-bound) and Quicksilver (periodic phases), showing
// total node power, one socket's CPU power and one GPU's power.
type Fig1Result struct {
	LAMMPS      []TimelinePoint
	Quicksilver []TimelinePoint
}

// Fig1 runs both applications on one Lassen node (all four GPUs) with the
// monitor sampling every 2 s, as in the paper.
func Fig1(opts Options) (*Fig1Result, error) {
	opts = opts.withDefaults()
	res := &Fig1Result{}
	run := func(spec job.Spec) ([]TimelinePoint, error) {
		e, err := newEnv(envConfig{
			system:      cluster.Lassen,
			nodes:       1,
			seed:        opts.Seed,
			withMonitor: true,
		})
		if err != nil {
			return nil, err
		}
		defer e.close()
		id, err := e.c.Submit(spec)
		if err != nil {
			return nil, err
		}
		if _, idle := e.c.RunUntilIdle(30 * time.Minute); !idle {
			return nil, fmt.Errorf("fig1: %s did not finish", spec.App)
		}
		jp, err := e.mon.QueryContext(context.Background(), id)
		if err != nil {
			return nil, err
		}
		return timelineFor(jp, 0), nil
	}
	var err error
	// Longer-running inputs than Table II so the timeline shows multiple
	// periods, as the figure does.
	if res.LAMMPS, err = run(job.Spec{App: "lammps", Nodes: 1, RepFactor: 2}); err != nil {
		return nil, err
	}
	if res.Quicksilver, err = run(job.Spec{App: "quicksilver", Nodes: 1, SizeFactor: 10}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints both series as aligned columns.
func (r *Fig1Result) Render() string {
	out := "Fig 1a: LAMMPS on Lassen (1 node, 4 GPUs)\n"
	out += renderTimeline(r.LAMMPS)
	out += "\nFig 1b: Quicksilver on Lassen (1 node, 4 GPUs)\n"
	out += renderTimeline(r.Quicksilver)
	return out
}

func renderTimeline(pts []TimelinePoint) string {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			f1(p.TimeSec), f1(p.NodeW), f1(p.CPUW / 2), f1(p.GPU0W),
		})
	}
	return table([]string{"time_s", "node_W", "socket0_W", "gpu0_W"}, rows)
}
