package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces. Metrics holds every metric the
// run measured; main selects the end-to-end or per-layer set for output.
type report struct {
	Correct   bool
	Failures  []string // correctness checks that failed, one line each
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
	Notes     []string // human-readable lines printed before the result
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// check records a correctness check; a false ok fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile picks the reported tail percentile for n samples: 0.99
// when at least ten samples lie beyond it, otherwise the highest
// percentile that still has ten beyond it.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return math.Max(q, 0.5)
}

// median of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean of xs, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latChunks is how many consecutive parts of the measured window the
// latency tail is taken over.
const latChunks = 5

// chunkedLatency holds latency samples by the part of the measured
// window they fell in.
type chunkedLatency [latChunks][]float64

// add records v at position frac in [0, 1) of the window.
func (c *chunkedLatency) add(frac, v float64) {
	i := int(frac * latChunks)
	c[min(max(i, 0), latChunks-1)] = append(c[min(max(i, 0), latChunks-1)], v)
}

// setLatency reports latency_p50_ms over every sample, prints the p50
// and the tail under the operation's own names (name_p50_ms,
// name_p99_ms) and returns the tail: the median over the window's parts
// of each part's p99 where a part has ten samples beyond it, otherwise
// of the highest percentile that does. Taking the median part keeps a
// burst of interference from outside the process (a noisy neighbour on
// a shared host) from setting the tail.
func (r *report) setLatency(name string, c *chunkedLatency) (tail float64) {
	var all []float64
	smallest := -1
	for _, xs := range c {
		all = append(all, xs...)
		if len(xs) > 0 && (smallest < 0 || len(xs) < smallest) {
			smallest = len(xs)
		}
	}
	q := tailQuantile(smallest)
	var tails []float64
	for _, xs := range c {
		if len(xs) > 0 {
			tails = append(tails, quantile(xs, q))
		}
	}
	sort.Float64s(all)
	p50 := sortedQuantile(all, 0.5)
	tail = median(tails)
	r.set("latency_p50_ms", "ms", p50)
	r.note("%s_p50_ms %.4f (reported as latency_p50_ms), %s_p99_ms %.4f (p%.4g, median of the window's fifths) over %d samples",
		name, p50, name, tail, q*100, len(all))
	return tail
}

// runtimeSample reads the Go runtime counters the per-layer report uses.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{allocBytes: u(0), allocObjects: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// heapBytes is the Go heap currently occupied by objects (live and not
// yet swept).
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapBytes is the Go heap the last garbage collection found live.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples liveHeapBytes every few milliseconds until stopped.
// The live heap, unlike the heap occupied by objects, leaves out garbage
// not yet collected, so the peak does not depend on when the collector
// happened to run.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{}), peak: liveHeapBytes()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if b := liveHeapBytes(); b > h.peak {
					h.peak = b
				}
			}
		}
	}()
	return h
}

// Stop ends sampling, collects garbage so that the heap grown since the
// last collection is counted too, and returns the peak in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	<-h.done
	if b := settledHeap(); b > h.peak {
		h.peak = b
	}
	return h.peak
}

// settledHeap collects garbage and returns the live heap.
func settledHeap() uint64 {
	runtime.GC()
	return heapBytes()
}

// hostRate accumulates host CPU time against simulated time in chunks
// of simulated time and reports host CPU milliseconds per simulated
// second over the window. CPU time, unlike wall time, leaves out the
// time a shared host's other tenants take the CPU away (steal). The
// chunks let a traced run switch tracing at their boundaries.
type hostRate struct {
	chunk time.Duration // simulated length of one chunk
	host  map[int]time.Duration
	sim   map[int]time.Duration
}

// rateChunks is how many chunks a measured window is split into.
const rateChunks = 20

func newHostRate(window time.Duration) *hostRate {
	c := window / rateChunks
	if c <= 0 {
		c = 1
	}
	return &hostRate{chunk: c, host: map[int]time.Duration{}, sim: map[int]time.Duration{}}
}

// index is the chunk holding simulated offset at from the window's start.
func (h *hostRate) index(at time.Duration) int { return int(at / h.chunk) }

// end is the simulated offset at which chunk i ends.
func (h *hostRate) end(i int) time.Duration { return time.Duration(i+1) * h.chunk }

// add charges host CPU time spent advancing sim simulated time,
// starting at simulated offset at from the window's start.
func (h *hostRate) add(at, cpu, sim time.Duration) {
	i := h.index(at)
	h.host[i] += cpu
	h.sim[i] += sim
}

// msPerSimSec is host CPU ms per simulated second over the window.
func (h *hostRate) msPerSimSec() float64 {
	return h.msPerSimSecWhere(func(int) bool { return true })
}

// msPerSimSecWhere is msPerSimSec over the chunks keep selects.
func (h *hostRate) msPerSimSecWhere(keep func(i int) bool) float64 {
	var cpu, sim time.Duration
	for i, s := range h.sim {
		if keep(i) {
			cpu += h.host[i]
			sim += s
		}
	}
	return ms(cpu) / sim.Seconds()
}

// simWhere is the simulated time charged to the chunks keep selects.
func (h *hostRate) simWhere(keep func(i int) bool) time.Duration {
	var d time.Duration
	for i, s := range h.sim {
		if keep(i) {
			d += s
		}
	}
	return d
}

// tracedChunk reports whether chunk i of a traced run's window is
// traced. The order untraced, traced, traced, untraced, ... spreads a
// steady change of load over the window (a cluster filling up, a ring
// growing) evenly between the two kinds, so their difference is the
// tracing's own cost.
func tracedChunk(i int) bool { return i%4 == 1 || i%4 == 2 }

// setTraceRates reports a traced run's host cost over the traced
// chunks, and its difference from the cost over the untraced chunks.
func (r *report) setTraceRates(h *hostRate) {
	traced := h.msPerSimSecWhere(tracedChunk)
	untraced := h.msPerSimSecWhere(func(i int) bool { return !tracedChunk(i) })
	r.set("trace.host_cpu_ms_per_sim_s", "ms", traced)
	r.set("trace.overhead_cpu_ms_per_sim_s", "ms", traced-untraced)
	r.note("traced chunks %.4f, untraced chunks %.4f host CPU ms per sim-s", traced, untraced)
}
