package experiments

import (
	"context"
	"fmt"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermgr"
)

// Table4Case names one policy column of Table IV.
type Table4Case string

// The five use cases of Table IV.
const (
	CaseUnconstrained Table4Case = "unconstrained"
	CaseIBMDefault    Table4Case = "ibm-default-1200"
	CaseStatic1950    Table4Case = "static-1950"
	CaseProportional  Table4Case = "proportional"
	CaseFPP           Table4Case = "fpp"
)

// Table4Cases lists the use cases in the paper's row order.
var Table4Cases = []Table4Case{
	CaseUnconstrained, CaseIBMDefault, CaseStatic1950, CaseProportional, CaseFPP,
}

// Table4Row is one use case's measurements for both applications.
type Table4Row struct {
	Case         Table4Case
	NodeCapW     float64
	GEMMMaxNodeW float64
	QSMaxNodeW   float64
	GEMMSec      float64
	QSSec        float64
	GEMMEnergyKJ float64 // per node
	QSEnergyKJ   float64 // per node

	// Timelines for Figures 5 (proportional) and 6 (FPP): one GEMM node
	// and one Quicksilver node.
	GEMMTimeline []TimelinePoint
	QSTimeline   []TimelinePoint
}

// Table4Result reproduces Table IV and figures 5-6.
type Table4Result struct {
	Rows []Table4Row
}

// managerFor builds the power-manager configuration for a use case.
func managerFor(c Table4Case) *powermgr.Config {
	switch c {
	case CaseUnconstrained:
		return nil
	case CaseIBMDefault:
		return &powermgr.Config{Policy: powermgr.PolicyStatic, StaticNodeCapW: 1200}
	case CaseStatic1950:
		return &powermgr.Config{Policy: powermgr.PolicyStatic, StaticNodeCapW: 1950}
	case CaseProportional:
		return &powermgr.Config{Policy: powermgr.PolicyProportional, GlobalCapW: clusterBoundW}
	case CaseFPP:
		return &powermgr.Config{Policy: powermgr.PolicyFPP, GlobalCapW: clusterBoundW}
	default:
		return nil
	}
}

// nodeCapFor reports the vendor node cap column of Table IV.
func nodeCapFor(c Table4Case) float64 {
	switch c {
	case CaseUnconstrained:
		return 3050
	case CaseIBMDefault:
		return 1200
	default:
		return 1950 // static-1950 and the dynamic policies' backstop
	}
}

// Table4 runs the GEMM+Quicksilver scenario under each policy. Sensor
// noise is enabled (the real OCC is noisy): the FPP controllers see the
// same imperfect telemetry the paper's implementation did.
func Table4(opts Options) (*Table4Result, error) {
	opts = opts.withDefaults()
	res := &Table4Result{}
	for _, c := range Table4Cases {
		row, err := runTable4Case(opts, c)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runTable4Case(opts Options, c Table4Case) (Table4Row, error) {
	e, err := newEnv(envConfig{
		system:       cluster.Lassen,
		nodes:        scenarioNodes,
		seed:         opts.Seed,
		sensorNoiseW: 8,
		withMonitor:  true,
		manager:      managerFor(c),
	})
	if err != nil {
		return Table4Row{}, err
	}
	defer e.close()

	gemmSpec, qsSpec := scenarioJobs()
	gemmID, err := e.c.Submit(gemmSpec)
	if err != nil {
		return Table4Row{}, err
	}
	qsID, err := e.c.Submit(qsSpec)
	if err != nil {
		return Table4Row{}, err
	}
	if _, idle := e.c.RunUntilIdle(2 * time.Hour); !idle {
		return Table4Row{}, fmt.Errorf("table4: case %s did not drain", c)
	}
	gemmStats, _ := e.c.Stats(gemmID)
	qsStats, _ := e.c.Stats(qsID)
	row := Table4Row{
		Case:         c,
		NodeCapW:     nodeCapFor(c),
		GEMMMaxNodeW: gemmStats.MaxNodePowerW,
		QSMaxNodeW:   qsStats.MaxNodePowerW,
		GEMMSec:      gemmStats.ExecSec(),
		QSSec:        qsStats.ExecSec(),
		GEMMEnergyKJ: gemmStats.EnergyPerNodeJ / 1000,
		QSEnergyKJ:   qsStats.EnergyPerNodeJ / 1000,
	}
	// Timelines (Figs 5-6): first node of each job.
	if jp, err := e.mon.QueryContext(context.Background(), gemmID); err == nil {
		row.GEMMTimeline = timelineFor(jp, gemmStats.Ranks[0])
	}
	if jp, err := e.mon.QueryContext(context.Background(), qsID); err == nil {
		row.QSTimeline = timelineFor(jp, qsStats.Ranks[0])
	}
	return row, nil
}

// Row finds a use case's measurements.
func (r *Table4Result) Row(c Table4Case) (Table4Row, bool) {
	for _, row := range r.Rows {
		if row.Case == c {
			return row, true
		}
	}
	return Table4Row{}, false
}

func (r *Table4Result) tabular() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			string(row.Case), f0(row.NodeCapW),
			f0(row.GEMMMaxNodeW), f0(row.QSMaxNodeW),
			f0(row.GEMMSec), f0(row.QSSec),
			f0(row.GEMMEnergyKJ), f0(row.QSEnergyKJ),
		})
	}
	return []string{"use_case", "node_cap_W", "gemm_max_W", "qs_max_W", "gemm_s", "qs_s", "gemm_kJ", "qs_kJ"}, rows
}

// Render prints Table IV's layout.
func (r *Table4Result) Render() string {
	header, rows := r.tabular()
	return "Table IV: static vs dynamic power capping (GEMM 6 nodes + Quicksilver 2 nodes)\n" +
		table(header, rows)
}

// RenderCSV emits the table as CSV for plotting.
func (r *Table4Result) RenderCSV() string {
	header, rows := r.tabular()
	return csvTable(header, rows)
}

// Fig5 extracts the proportional-sharing timeline (Figure 5) from a
// Table IV result: GEMM's node power steps up when Quicksilver exits.
func Fig5(r *Table4Result) (gemm, qs []TimelinePoint, err error) {
	row, ok := r.Row(CaseProportional)
	if !ok {
		return nil, nil, fmt.Errorf("fig5: proportional case missing")
	}
	return row.GEMMTimeline, row.QSTimeline, nil
}

// Fig6 extracts the FPP timeline (Figure 6).
func Fig6(r *Table4Result) (gemm, qs []TimelinePoint, err error) {
	row, ok := r.Row(CaseFPP)
	if !ok {
		return nil, nil, fmt.Errorf("fig6: fpp case missing")
	}
	return row.GEMMTimeline, row.QSTimeline, nil
}

// RenderTimelines prints figures 5/6 style series.
func RenderTimelines(title string, gemm, qs []TimelinePoint) string {
	out := title + "\nGEMM node:\n" + renderTimeline(gemm)
	out += "\nQuicksilver node:\n" + renderTimeline(qs)
	return out
}
