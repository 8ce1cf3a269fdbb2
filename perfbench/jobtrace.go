package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
)

// jobRow is one job of a submission trace. The CSV form has one row per
// job with the columns of traceHeader, so a scheduler export converted
// to these columns can replace the synthetic trace without code changes
// (see --jobs-csv).
type jobRow struct {
	SubmitSec  float64
	App        string
	Nodes      int
	SizeFactor float64
	RepFactor  float64
}

var traceHeader = []string{"job_id", "submit_sec", "app", "nodes", "size_factor", "rep_factor"}

// traceApps are the paper's four GPU applications; nqueens is CPU-only
// and stays out of the power-managed job mix.
var traceApps = []string{"lammps", "gemm", "quicksilver", "laghos"}

// traceParams shapes the synthetic arrival process: a Poisson stream
// whose rate follows a (compressed) diurnal sine and is multiplied
// during bursts, one burst at a random offset in every BurstGapSec.
type traceParams struct {
	HorizonSec  float64 // arrivals are generated in [0, HorizonSec)
	RatePerSec  float64 // long-run mean arrival rate
	DayLenSec   float64 // diurnal period
	DiurnalAmp  float64 // relative amplitude of the diurnal swing, in [0, 1)
	BurstGapSec float64 // one burst per period of this length; 0 = none
	BurstLenSec float64 // duration of one burst
	BurstFactor float64 // rate multiplier inside a burst
	MaxNodes    int     // sizes are powers of two from 1 to MaxNodes
	// RepFactors are the iteration-count scalings drawn per job.
	RepFactors []float64
}

// traceSlotSec is the stratum of the arrival process; see generateTrace.
const traceSlotSec = 30.0

// generateTrace draws a job trace from seed. The same seed and params
// give the same trace.
//
// Arrivals are the modulated Poisson process conditioned on its expected
// count per traceSlotSec slot: each slot receives the integral of the
// rate over it, rounded with the remainder carried to the next slot, at
// instants drawn independently from the rate profile inside the slot
// (which is exactly how a Poisson process places a given number of
// arrivals). Job kinds are dealt from a shuffled deck of every (size,
// app, rep factor) combination, so each run of deck-size jobs holds each
// combination once. Both remove load noise that is not the system's
// doing: runs with different seeds offer the same load, and their spread
// measures the program rather than the draw.
func generateTrace(seed int64, p traceParams) []jobRow {
	rng := rand.New(rand.NewSource(seed))

	var bursts [][2]float64
	burstShare := 0.0
	if p.BurstGapSec > 0 {
		for t0 := 0.0; t0 < p.HorizonSec; t0 += p.BurstGapSec {
			s := t0 + rng.Float64()*(p.BurstGapSec-p.BurstLenSec)
			bursts = append(bursts, [2]float64{s, s + p.BurstLenSec})
		}
		burstShare = p.BurstLenSec / p.BurstGapSec
	}
	// Normalise the base rate so the long-run mean matches RatePerSec.
	base := p.RatePerSec / (1 + burstShare*(p.BurstFactor-1))
	rate := func(t float64) float64 {
		r := base * (1 + p.DiurnalAmp*math.Sin(2*math.Pi*t/p.DayLenSec))
		for _, b := range bursts {
			if b[0] <= t && t < b[1] {
				r *= p.BurstFactor
				break
			}
		}
		return r
	}

	var sizes []int
	for n := 1; n <= p.MaxNodes; n *= 2 {
		sizes = append(sizes, n)
	}
	// One deck over every (size, app, rep factor) combination, dealt in
	// the same order for every seed: seeds differ in when jobs arrive, not
	// in which heavy jobs happen to cluster.
	nApps, nReps := len(traceApps), len(p.RepFactors)
	kinds := newDeck(rand.New(rand.NewSource(1)), len(sizes)*nApps*nReps)

	const step = 0.1 // integration step of the rate profile, seconds
	var rows []jobRow
	carry := 0.0
	for s0 := 0.0; s0 < p.HorizonSec; s0 += traceSlotSec {
		steps := int(math.Round(math.Min(traceSlotSec, p.HorizonSec-s0) / step))
		cum := make([]float64, steps) // cumulative expected arrivals
		total := 0.0
		for k := 0; k < steps; k++ {
			total += rate(s0+(float64(k)+0.5)*step) * step
			cum[k] = total
		}
		carry += total
		n := int(carry)
		carry -= float64(n)
		times := make([]float64, n)
		for i := range times {
			k := sort.SearchFloat64s(cum, rng.Float64()*total)
			times[i] = s0 + (float64(k)+rng.Float64())*step
		}
		sort.Float64s(times)
		for _, t := range times {
			k := kinds.next()
			rows = append(rows, jobRow{
				SubmitSec:  math.Round(t*1000) / 1000,
				App:        traceApps[k%nApps],
				Nodes:      sizes[k/nApps/nReps],
				SizeFactor: 1,
				RepFactor:  p.RepFactors[k/nApps%nReps],
			})
		}
	}
	return rows
}

// deck deals indices 0..n-1 in shuffled rounds.
type deck struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() int {
	if len(d.perm) == 0 {
		d.perm = d.rng.Perm(d.n)
	}
	i := d.perm[0]
	d.perm = d.perm[1:]
	return i
}

// writeTrace writes rows as CSV with traceHeader.
func writeTrace(w io.Writer, rows []jobRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return err
	}
	for i, r := range rows {
		rec := []string{
			strconv.Itoa(i + 1),
			strconv.FormatFloat(r.SubmitSec, 'f', -1, 64),
			r.App,
			strconv.Itoa(r.Nodes),
			strconv.FormatFloat(r.SizeFactor, 'f', -1, 64),
			strconv.FormatFloat(r.RepFactor, 'f', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// readTrace parses a trace CSV, sorted by submit time. It rejects rows a
// job manager would refuse, so a malformed export fails before the run.
func readTrace(r io.Reader) ([]jobRow, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty file")
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	for _, h := range traceHeader[1:] {
		if _, ok := col[h]; !ok {
			return nil, fmt.Errorf("trace: missing column %q", h)
		}
	}
	rows := make([]jobRow, 0, len(recs)-1)
	for n, rec := range recs[1:] {
		line := n + 2
		if len(rec) != len(recs[0]) {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d", line, len(rec), len(recs[0]))
		}
		var row jobRow
		var perr error
		num := func(name string) float64 {
			v, err := strconv.ParseFloat(rec[col[name]], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				perr = fmt.Errorf("trace: line %d: %s %q is not a finite non-negative number", line, name, rec[col[name]])
			}
			return v
		}
		row.SubmitSec = num("submit_sec")
		row.SizeFactor = num("size_factor")
		row.RepFactor = num("rep_factor")
		row.App = rec[col["app"]]
		nodes, err := strconv.Atoi(rec[col["nodes"]])
		if err != nil || nodes <= 0 {
			perr = fmt.Errorf("trace: line %d: nodes %q is not a positive integer", line, rec[col["nodes"]])
		}
		row.Nodes = nodes
		if perr != nil {
			return nil, perr
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SubmitSec < rows[j].SubmitSec })
	return rows, nil
}

// loadTrace writes the generated trace to path and reads it back, so
// the workload consumes exactly the file a user could replace.
func loadTrace(path string, rows []jobRow) ([]jobRow, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(f, rows); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return readTraceFile(path)
}

func readTraceFile(path string) ([]jobRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readTrace(f)
}
