// Command fluxpowersim regenerates the paper's tables and figures from
// the simulated reproduction. Each experiment prints the same rows/series
// the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	fluxpowersim -exp table4
//	fluxpowersim -exp all -quick
//	fluxpowersim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fluxpower/internal/experiments"
)

type runner func(opts experiments.Options) (string, error)

var registry = map[string]runner{
	"fig1": func(o experiments.Options) (string, error) {
		r, err := experiments.Fig1(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig2": func(o experiments.Options) (string, error) {
		r, err := experiments.Fig2(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"table2": func(o experiments.Options) (string, error) {
		r, err := experiments.Table2(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig3": func(o experiments.Options) (string, error) {
		r, err := experiments.Fig3(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig4": func(o experiments.Options) (string, error) {
		f3, err := experiments.Fig3(o)
		if err != nil {
			return "", err
		}
		r, err := experiments.Fig4(f3)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"table3": func(o experiments.Options) (string, error) {
		r, err := experiments.Table3(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"table4": func(o experiments.Options) (string, error) {
		r, err := experiments.Table4(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig5": func(o experiments.Options) (string, error) {
		r, err := experiments.Table4(o)
		if err != nil {
			return "", err
		}
		gemm, qs, err := experiments.Fig5(r)
		if err != nil {
			return "", err
		}
		return experiments.RenderTimelines("Fig 5: proportional sharing timeline", gemm, qs), nil
	},
	"fig6": func(o experiments.Options) (string, error) {
		r, err := experiments.Table4(o)
		if err != nil {
			return "", err
		}
		gemm, qs, err := experiments.Fig6(r)
		if err != nil {
			return "", err
		}
		return experiments.RenderTimelines("Fig 6: FPP timeline", gemm, qs), nil
	},
	"fig7": func(o experiments.Options) (string, error) {
		r, err := experiments.Fig7(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"timelines": func(o experiments.Options) (string, error) {
		rs, err := experiments.AllTimelines(o)
		if err != nil {
			return "", err
		}
		out := ""
		for _, r := range rs {
			out += r.Render() + "\n"
		}
		return out, nil
	},
	"sweep": func(o experiments.Options) (string, error) {
		r, err := experiments.BoundSweep(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"queue": func(o experiments.Options) (string, error) {
		r, err := experiments.Queue(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"scale": func(o experiments.Options) (string, error) {
		r, err := experiments.Scale(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"chaos": func(o experiments.Options) (string, error) {
		r, err := experiments.Chaos(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"heal": func(o experiments.Options) (string, error) {
		r, err := experiments.Heal(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"serve": func(o experiments.Options) (string, error) {
		r, err := experiments.Serve(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"store": func(o experiments.Options) (string, error) {
		r, err := experiments.Store(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"policy": func(o experiments.Options) (string, error) {
		r, err := experiments.Policy(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"query": func(o experiments.Options) (string, error) {
		r, err := experiments.Query(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fanout": func(o experiments.Options) (string, error) {
		r, err := experiments.Fanout(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
}

// csvRegistry covers the experiments with a CSV rendering (-format csv).
var csvRegistry = map[string]runner{
	"table2": func(o experiments.Options) (string, error) {
		r, err := experiments.Table2(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"table3": func(o experiments.Options) (string, error) {
		r, err := experiments.Table3(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"table4": func(o experiments.Options) (string, error) {
		r, err := experiments.Table4(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"sweep": func(o experiments.Options) (string, error) {
		r, err := experiments.BoundSweep(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"scale": func(o experiments.Options) (string, error) {
		r, err := experiments.Scale(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"chaos": func(o experiments.Options) (string, error) {
		r, err := experiments.Chaos(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"heal": func(o experiments.Options) (string, error) {
		r, err := experiments.Heal(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"serve": func(o experiments.Options) (string, error) {
		r, err := experiments.Serve(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"store": func(o experiments.Options) (string, error) {
		r, err := experiments.Store(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"policy": func(o experiments.Options) (string, error) {
		r, err := experiments.Policy(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"query": func(o experiments.Options) (string, error) {
		r, err := experiments.Query(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
	"fanout": func(o experiments.Options) (string, error) {
		r, err := experiments.Fanout(o)
		if err != nil {
			return "", err
		}
		return r.RenderCSV(), nil
	},
}

// jsonRegistry covers the experiments with a JSON rendering (-format
// json) — the benchmark artifacts CI publishes (BENCH_query.json,
// BENCH_fanout.json).
var jsonRegistry = map[string]runner{
	"query": func(o experiments.Options) (string, error) {
		r, err := experiments.Query(o)
		if err != nil {
			return "", err
		}
		return r.RenderJSON()
	},
	"fanout": func(o experiments.Options) (string, error) {
		r, err := experiments.Fanout(o)
		if err != nil {
			return "", err
		}
		return r.RenderJSON()
	},
}

func names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// run is main minus the process exit, so tests can drive the CLI
// end-to-end: parse args, run the selected experiments, return the exit
// code (0 ok, 1 experiment failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fluxpowersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment to run: "+strings.Join(names(), ", ")+", or 'all'")
	quick := fs.Bool("quick", false, "shrink sweeps/repetitions for a fast run")
	format := fs.String("format", "text", "output format: text, csv (table2, table3, table4, scale, sweep, ...), or json (query, fanout)")
	seed := fs.Int64("seed", experiments.DefaultSeed, "simulation seed")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, n := range names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "fluxpowersim: -exp required (or -list); e.g. -exp table4")
		return 2
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick}
	targets := []string{*exp}
	if *exp == "all" {
		targets = names()
	}
	for _, name := range targets {
		run, ok := registry[name]
		if !ok {
			fmt.Fprintf(stderr, "fluxpowersim: unknown experiment %q (have %s)\n", name, strings.Join(names(), ", "))
			return 2
		}
		switch *format {
		case "csv":
			if csvRun, csvOK := csvRegistry[name]; csvOK {
				run = csvRun
			} else {
				fmt.Fprintf(stderr, "fluxpowersim: %q has no CSV rendering\n", name)
				return 2
			}
		case "json":
			if jsonRun, jsonOK := jsonRegistry[name]; jsonOK {
				run = jsonRun
			} else {
				fmt.Fprintf(stderr, "fluxpowersim: %q has no JSON rendering\n", name)
				return 2
			}
		}
		out, err := run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "fluxpowersim: %s: %v\n", name, err)
			return 1
		}
		if *format == "json" {
			// Raw machine-readable output: no banner, pipeable straight to
			// an artifact file (BENCH_query.json).
			fmt.Fprint(stdout, out)
			continue
		}
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", name, out)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
