// Command iflex-bench regenerates the paper's evaluation tables
// (Section 6). Every table and figure-equivalent of the evaluation has a
// harness here; see DESIGN.md's per-experiment index.
//
// Usage:
//
//	iflex-bench -table 5 -scale 0.2          # Table 5 at 20% corpus sizes
//	iflex-bench -table all -scale 1 -out results.txt
//
// -scale 1 runs the paper's corpus sizes (slow: tens of minutes);
// tests use small scales, which preserve the result shapes.
// Performance is measured by benchmark/ (bash benchmark/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iflex/internal/experiments"
	"iflex/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body with an exit code instead of os.Exit: every failure
// path returns, so the deferred profile flush and -out file close always
// happen. (A CPU profile is only parseable after pprof.StopCPUProfile —
// calling os.Exit mid-run used to truncate it.)
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iflex-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table      = fs.String("table", "all", "which table to regenerate: 1, 2, 3, 4, 5, 6, conv, variance, scaling, or all")
		scale      = fs.Float64("scale", 0.2, "corpus size factor (1.0 = paper sizes)")
		seed       = fs.Int64("seed", 1, "corpus generation seed")
		strategy   = fs.String("strategy", "sim", "assistant strategy for Tables 3/4/conv: seq or sim")
		workers    = fs.Int("workers", 0, "worker pool size (0 = one per CPU, 1 = serial)")
		timeout    = fs.Duration("timeout", 0, "best-effort deadline per assistant session: expired sessions report their partial result and a degradation summary (0 = none)")
		outPath    = fs.String("out", "", "also write output to this file")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		tracePath  = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		fmt.Fprintln(stderr, "iflex-bench:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "iflex-bench: profiling:", err)
		}
	}()

	var out io.Writer = stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "iflex-bench:", err)
			return 1
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}
	o := experiments.Options{Scale: *scale, Seed: *seed, Strategy: *strategy, Workers: *workers, Deadline: *timeout, Out: out}
	tables := []struct {
		name string
		fn   func() error
	}{
		{"1", func() error { return experiments.Table1(o) }},
		{"2", func() error { return experiments.Table2(o) }},
		{"3", func() error { _, err := experiments.Table3(o); return err }},
		{"4", func() error { _, err := experiments.Table4(o); return err }},
		{"5", func() error { _, err := experiments.Table5(o); return err }},
		{"6", func() error { _, err := experiments.Table6(o); return err }},
		{"conv", func() error { _, err := experiments.Convergence(o); return err }},
		{"variance", func() error {
			_, err := experiments.Variance(o, []int64{1, 2, 3})
			return err
		}},
		{"scaling", func() error {
			_, err := experiments.Scaling(o, "T7", []int{100, 250, 500, 1000, 2500})
			return err
		}},
	}
	matched := false
	for _, tb := range tables {
		if *table != "all" && *table != tb.name {
			continue
		}
		matched = true
		if err := tb.fn(); err != nil {
			fmt.Fprintf(stderr, "iflex-bench: table %s: %v\n", tb.name, err)
			return 1
		}
		fmt.Fprintln(out)
	}
	if !matched {
		fmt.Fprintf(stderr, "iflex-bench: unknown table %q\n", *table)
		return 2
	}
	return 0
}
