package experiments

import (
	"context"
	"fmt"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/flux/job"
)

// Fig7Result reproduces Figure 7: proportional power capping applied to a
// non-MPI (Charm++) application. GEMM runs on 6 nodes; NQueens enters on
// 2 nodes mid-run, and GEMM's power drops as the manager redistributes.
type Fig7Result struct {
	GEMMTimeline    []TimelinePoint
	NQueensTimeline []TimelinePoint
	// GEMMPowerBeforeW / DuringW are GEMM's average node power before and
	// while NQueens shares the cluster — the figure's visible step.
	GEMMPowerBeforeW float64
	GEMMPowerDuringW float64
	NQueensStartSec  float64
	NQueensEndSec    float64
}

// Fig7 runs the scenario under proportional sharing with the Table IV
// cluster bound.
func Fig7(opts Options) (*Fig7Result, error) {
	opts = opts.withDefaults()
	e, err := newEnv(envConfig{
		system:      cluster.Lassen,
		nodes:       scenarioNodes,
		seed:        opts.Seed,
		withMonitor: true,
		manager:     &powermgr.Config{Policy: powermgr.PolicyProportional, GlobalCapW: clusterBoundW},
	})
	if err != nil {
		return nil, err
	}
	defer e.close()

	gemmSpec, _ := scenarioJobs()
	gemmID, err := e.c.Submit(gemmSpec)
	if err != nil {
		return nil, err
	}
	// Let GEMM run alone for a while, then the Charm++ job enters the
	// system ("GEMM power consumption drops when the NQueens application
	// enters", §IV-F).
	e.c.RunFor(120 * time.Second)
	nqID, err := e.c.Submit(job.Spec{Name: "nqueens", App: "nqueens", Nodes: 2})
	if err != nil {
		return nil, err
	}
	if _, idle := e.c.RunUntilIdle(2 * time.Hour); !idle {
		return nil, fmt.Errorf("fig7: jobs did not drain")
	}

	res := &Fig7Result{}
	gemmStats, _ := e.c.Stats(gemmID)
	nqStats, _ := e.c.Stats(nqID)
	res.NQueensStartSec = nqStats.StartSec
	res.NQueensEndSec = nqStats.EndSec
	jp, err := e.mon.QueryContext(context.Background(), gemmID)
	if err != nil {
		return nil, err
	}
	res.GEMMTimeline = timelineFor(jp, gemmStats.Ranks[0])
	if jpn, err := e.mon.QueryContext(context.Background(), nqID); err == nil {
		res.NQueensTimeline = timelineFor(jpn, nqStats.Ranks[0])
	}
	// Average GEMM node power in the solo window vs the shared window.
	var beforeSum, duringSum float64
	var beforeN, duringN int
	for _, p := range res.GEMMTimeline {
		abs := p.TimeSec + gemmStats.StartSec
		switch {
		case abs < res.NQueensStartSec:
			beforeSum += p.NodeW
			beforeN++
		case abs >= res.NQueensStartSec && (res.NQueensEndSec == 0 || abs <= res.NQueensEndSec):
			duringSum += p.NodeW
			duringN++
		}
	}
	if beforeN > 0 {
		res.GEMMPowerBeforeW = beforeSum / float64(beforeN)
	}
	if duringN > 0 {
		res.GEMMPowerDuringW = duringSum / float64(duringN)
	}
	return res, nil
}

// Render prints the figure's series and the observed power step.
func (r *Fig7Result) Render() string {
	out := "Fig 7: proportional capping with a non-MPI (Charm++) job\n"
	out += fmt.Sprintf("GEMM avg node power: %.0f W alone -> %.0f W while NQueens runs (t=%.0f..%.0f s)\n\n",
		r.GEMMPowerBeforeW, r.GEMMPowerDuringW, r.NQueensStartSec, r.NQueensEndSec)
	out += "GEMM node:\n" + renderTimeline(r.GEMMTimeline)
	out += "\nNQueens node:\n" + renderTimeline(r.NQueensTimeline)
	return out
}
