// Command perfbench is the repository's full-stack benchmark. It runs
// the paper's whole module set — cluster engine, TBON brokers, job
// manager and scheduler, power monitor and manager, tsdb store, query
// engine, powerapi gateway and fanout hub — on one of three workloads:
//
//	fleet-stream    a 1024-node fleet fed an open-loop job trace
//	live-telemetry  published samples streamed to ~2000 SSE subscribers
//	gateway-reads   an open-loop HTTP read mix over an hour of history
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 is a separate run that reports the per-layer
// metrics and writes its spans to <workdir>/trace-<workload>-<seed>.json.
// A failed correctness check prints the result with correct=false and
// exits 1; an error that prevents a result exits 2 without one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// options are the knobs every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	toy     bool   // tiny sizes, for the package's own tests
	workdir string // build and scratch directory inside the checkout
	runDir  string // per-run scratch (stores, trace CSV), removed at exit
	jobsCSV string // replaces the synthetic job trace when set
	// corrupt names one observed output to falsify before the checks
	// run (see corruptions), so tests can prove the checks fail on a
	// wrong output.
	corrupt string
}

// workloads maps --workload names to their runners.
var workloads = map[string]func(options) (*report, error){
	"fleet-stream":   runFleet,
	"live-telemetry": runLive,
	"gateway-reads":  runGateway,
}

// corruptions are the outputs each workload can falsify for the
// package's tests, one per correctness check they exercise.
var corruptions = map[string][]string{
	"fleet-stream":   {"accounting", "granted", "admitted"},
	"live-telemetry": {"delivery", "durable"},
	"gateway-reads":  {"answer"},
}

// metricSpec is one reported metric name with its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of untraced runs, on every workload.
// host_cpu_ms_per_sim_s is CPU time, which leaves out the time a shared
// host's other tenants hold the CPU. latency_p50_ms is each workload's
// user-facing operation: a job submit that starts its job on
// fleet-stream, SSE frame delivery on live-telemetry, HTTP read on
// gateway-reads. Its tail is printed on every run and reported by the
// traced run (job.submit_p99_ms, fanout.sse_p99_ms, powerapi.http_p99_ms)
// but not gated: on gateway-reads it spread by 35-65 % between seeds.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"host_cpu_ms_per_sim_s", "ms"},
	{"latency_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fleet-stream, live-telemetry or gateway-reads")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window in wall-clock seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for stores and trace output")
	jobsCSV := fs.String("jobs-csv", "", "job trace CSV to use instead of the synthetic one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --trace 0|1, --seconds > 0\n", workloadNames())
		return 2
	}
	o := options{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: *workdir, jobsCSV: *jobsCSV,
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	o.runDir = dir

	rep, err := runner(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 2
	}
	return emit(rep, o.trace, stdout, stderr)
}

// emit prints the notes and the result line, and turns a failed check
// into exit code 1.
func emit(rep *report, traced bool, stdout, stderr io.Writer) int {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, sp := range specs {
		m, ok := rep.Metrics[sp.name]
		if !ok {
			if !traced {
				fmt.Fprintf(stderr, "perfbench: workload did not measure %s\n", sp.name)
				return 2
			}
			m = metric{Unit: sp.unit} // the layer is idle on this workload
		}
		if m.Unit != sp.unit {
			fmt.Fprintf(stderr, "perfbench: %s measured in %s, declared in %s\n", sp.name, m.Unit, sp.unit)
			return 2
		}
		res.Metrics[sp.name] = m
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(stdout, "# CHECK FAILED:", f)
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tracer returns the run's tracer, nil for untraced runs.
func (o options) tracer() *tracer {
	if !o.trace {
		return nil
	}
	return newTracer()
}

// jobTrace generates the seeded job trace, writes it as CSV into the run
// directory and reads it back — or reads --jobs-csv instead.
func (o options) jobTrace(p traceParams) ([]jobRow, error) {
	if o.jobsCSV != "" {
		return readTraceFile(o.jobsCSV)
	}
	return loadTrace(filepath.Join(o.runDir, "jobs.csv"), generateTrace(o.seed, p))
}

// writeTrace stores the traced run's spans and counters.
func (o options) writeTrace(tr *tracer, workload string, prof *cpuAttribution, rep *report) error {
	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%d.json", workload, o.seed))
	if err := tr.write(path, workload, o.seed, prof, rep.Metrics); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	rep.note("spans written to %s", path)
	return nil
}
