package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// results is the file a suite run writes: every run of every workload.
type results struct {
	Seconds float64   `json:"seconds"`
	Runs    []runInfo `json:"runs"`
}

// runChild measures one workload in a child process of its own, so that
// each starts from a fresh heap and its peak memory is its own, and
// returns what the child's info line says.
func runChild(name string, opt options) (*runInfo, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", name, trace, err)
	}
	var info *runInfo
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "info "); ok {
			info = &runInfo{}
			if err := json.Unmarshal([]byte(line), info); err != nil {
				return nil, err
			}
		}
	}
	if info == nil {
		return nil, fmt.Errorf("%s (trace %s): no info line", name, trace)
	}
	return info, nil
}

// runSuite runs every workload untraced and then traced, prints every
// metric by name with its unit, and writes all of it to out when given.
func runSuite(opt options, out string) error {
	res := results{Seconds: opt.seconds}
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			opt.trace = traced
			info, err := runChild(w.name, opt)
			if err != nil {
				return err
			}
			res.Runs = append(res.Runs, *info)
			printRun(info)
		}
	}
	return writeResults(out, res)
}

// printRun prints one run's metrics by name, with their units.
func printRun(info *runInfo) {
	pass := "end-to-end"
	if info.Trace {
		pass = "per-layer"
	}
	note := ""
	if info.Disturbed {
		note = "  DISTURBED: the noise sentinel moved by more than a quarter during this run"
	}
	fmt.Printf("\n%s, %s (seed %d, %d rounds, %d/%d operations failed)%s\n",
		info.Workload, pass, info.Seed, info.Rounds, info.Failed, info.Attempted, note)
	for _, def := range defsFor(info.Trace) {
		fmt.Printf("  %-40s %16.6g %s\n", def.name, info.Metrics[def.name].Value, def.unit)
	}
}

func writeResults(path string, res results) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// endToEndValues collects, per workload and end-to-end metric, the
// values of a result file's untraced runs.
func endToEndValues(res results) map[string]map[string][]float64 {
	vals := map[string]map[string][]float64{}
	for _, run := range res.Runs {
		if run.Trace {
			continue
		}
		if vals[run.Workload] == nil {
			vals[run.Workload] = map[string][]float64{}
		}
		for name, m := range run.Metrics {
			vals[run.Workload][name] = append(vals[run.Workload][name], m.Value)
		}
	}
	return vals
}

// spread is the largest difference between runs as a share of their
// median.
func spread(xs []float64) float64 {
	return ratio(quantile(xs, 1)-quantile(xs, 0), median(xs))
}

// selfCheck runs the untraced suite n times on the same seed and prints,
// per workload and end-to-end metric, the spread of the runs beside the
// metric's bound. A spread over half the bound is an error: two runs of
// the same code could then differ by the bound itself. The spread of
// setup_s is printed but exempt, as it is from the driver's own check: a
// set-up of 15 to 120 ms carries a run-to-run component no repetition
// inside a run removes.
func selfCheck(n int, opt options) error {
	var res results
	for i := 0; i < n; i++ {
		for _, w := range workloadDefs {
			info, err := runChild(w.name, opt)
			if err != nil {
				return err
			}
			if !info.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, info.Failed, info.Attempted)
			}
			res.Runs = append(res.Runs, *info)
		}
	}
	vals := endToEndValues(res)
	wide := 0
	fmt.Printf("%-18s %-20s %12s %8s %6s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloadDefs {
		for _, def := range endToEndDefs {
			xs := vals[w.name][def.name]
			verdict := ""
			switch {
			case def.name == "setup_s":
				verdict = "  (exempt)"
			case spread(xs) > def.bound/2:
				verdict = "  TOO WIDE"
				wide++
			}
			fmt.Printf("%-18s %-20s %12.6g %8.4f %6.2f%s\n", w.name, def.name, median(xs), spread(xs), def.bound, verdict)
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d end-to-end pairs spread over half their bound across %d runs", wide, n)
	}
	return nil
}

// compareFiles applies the bounds to two result files, one row per
// workload and end-to-end metric. A pair whose recorded spread in the
// first file is wider than its bound is unresolved, not unchanged.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files")
	}
	var vals [2]map[string]map[string][]float64
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var res results
		if err := json.Unmarshal(b, &res); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		vals[i] = endToEndValues(res)
	}
	regressed := 0
	fmt.Printf("%-18s %-20s %12s %12s %8s %6s  %s\n", "workload", "metric", "before", "after", "change", "bound", "verdict")
	for _, w := range workloadDefs {
		for _, def := range endToEndDefs {
			a, b := vals[0][w.name][def.name], vals[1][w.name][def.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			// worse is the relative change in the direction that counts
			// as worse for this metric.
			worse := ratio(median(b)-median(a), median(a))
			if def.better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case spread(a) > def.bound:
				verdict = "unresolved"
			case worse > def.bound:
				verdict = "regressed"
				regressed++
			case worse < -def.bound:
				verdict = "improved"
			}
			fmt.Printf("%-18s %-20s %12.6g %12.6g %+8.4f %6.2f  %s\n", w.name, def.name, median(a), median(b), worse, def.bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end pairs regressed", regressed)
	}
	return nil
}

// printList prints workload and metric names with their units.
func printList() {
	fmt.Println("workloads:")
	for _, w := range workloadDefs {
		fmt.Printf("  %-18s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (untraced pass; unit, better, bound):")
	for _, d := range endToEndDefs {
		fmt.Printf("  %-40s %-6s %-6s %.2f\n", d.name, d.unit, d.better, d.bound)
	}
	fmt.Println("per-layer metrics (traced pass; unit, better):")
	for _, d := range perLayerDefs {
		fmt.Printf("  %-40s %-6s %s\n", d.name, d.unit, d.better)
	}
}
