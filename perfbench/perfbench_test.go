package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check
// against: the declared workloads and metrics.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runToy runs one workload at toy size and returns its exit code and
// decoded result line.
func runToy(t *testing.T, name string, o options) (int, result, string) {
	t.Helper()
	o.toy = true
	o.seconds = 2
	o.workdir = t.TempDir()
	o.runDir = t.TempDir()
	rep, err := workloads[name](o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out, errOut bytes.Buffer
	code := emit(rep, o.trace, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v (stderr %s)", name, lines[len(lines)-1], err, errOut.String())
	}
	return code, res, out.String()
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	check := func(kind string, declared []struct{ Name, Unit string }, code []metricSpec) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(code))
		}
		units := map[string]string{}
		for _, m := range code {
			units[m.name] = m.unit
		}
		for _, m := range declared {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] declared, benchmark has unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s declared but not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
}

// TestToyRunsEmitEveryMetric runs each workload untraced and traced at
// toy size: every declared metric must come out with its unit, and the
// correctness checks must pass.
func TestToyRunsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			code, res, out := runToy(t, name, options{seed: 3, trace: traced})
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", name, traced, code, res, out)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, sp := range specs {
				m, ok := res.Metrics[sp.name]
				if !ok || m.Unit != sp.unit {
					t.Errorf("%s trace=%v: %s = %+v, want unit %s", name, traced, sp.name, m, sp.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, sp.name, m.Value)
				}
			}
		}
	}
}

// TestChecksTripOnWrongOutput falsifies, one at a time, each output a
// workload checks; the run must then report correct=false and exit 1.
func TestChecksTripOnWrongOutput(t *testing.T) {
	for _, name := range workloadNames() {
		if len(corruptions[name]) == 0 {
			t.Errorf("%s has no falsifiable output", name)
		}
		for _, c := range corruptions[name] {
			code, res, out := runToy(t, name, options{seed: 3, corrupt: c})
			if code != 1 || res.Correct || !strings.Contains(out, "CHECK FAILED") {
				t.Errorf("%s with its %s output falsified: exit %d, correct %v\n%s", name, c, code, res.Correct, out)
			}
		}
	}
}

func TestSameSeedSameTraceAndOutcome(t *testing.T) {
	p := fleetParams(true).trace
	a, b := generateTrace(7, p), generateTrace(7, p)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := generateTrace(8, p); len(c) == len(a) && c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Errorf("seeds 7 and 8 gave the same trace")
	}

	digest := func() string {
		_, _, out := runToy(t, "fleet-stream", options{seed: 5})
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, "sim outcome") {
				return l
			}
		}
		t.Fatalf("no outcome line in\n%s", out)
		return ""
	}
	if x, y := digest(), digest(); x != y {
		t.Errorf("same seed, different simulated outcome:\n%s\n%s", x, y)
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	rows := generateTrace(1, fleetParams(true).trace)
	var buf bytes.Buffer
	if err := writeTrace(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d rows back, wrote %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d: %+v, wrote %+v", i, got[i], rows[i])
		}
	}
	for _, bad := range []string{
		"job_id,submit_sec,app,nodes,size_factor\n1,0,gemm,1,1\n",
		"job_id,submit_sec,app,nodes,size_factor,rep_factor\n1,0,gemm,0,1,1\n",
		"job_id,submit_sec,app,nodes,size_factor,rep_factor\n1,NaN,gemm,1,1,1\n",
	} {
		if _, err := readTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("readTrace accepted %q", bad)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for in, want := range map[string]string{
		"fluxpower/internal/flux/broker.(*Broker).routeEvent":         "broker",
		"fluxpower/internal/core/powermon.(*Module).Init.func2":       "powermon",
		"fluxpower/internal/ringbuf.(*Ring[...]).Push":                "ringbuf",
		"fluxpower/internal/flux/reduce.Register[go.shape.struct {}]": "reduce",
		"encoding/json.Marshal":                                       "",
		"main.runFleet":                                               "",
	} {
		if got := layerOf(in); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", in, got, want)
		}
	}
}
