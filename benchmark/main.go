// Command benchmark is iFlex's one repeatable benchmark: four closed-loop
// workloads, the end-to-end metrics a developer or tenant would see, and
// a per-layer breakdown from a traced pass. It measures every layer from
// outside, by timing calls into the layers' public functions and reading
// their public counters. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints: whether every output was
// correct, the operations attempted and failed, and the metrics.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the outcome, for readers and for
// the suite runner.
type runInfo struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Procs    int     `json:"procs"`
	Rounds   int     `json:"rounds"`
	Setups   int     `json:"setups"`
	WallS    float64 `json:"wall_s"`
	// NoiseP50Ms and Disturbed report the noise sentinel: its median run
	// time, and whether it moved by more than a quarter during the run.
	NoiseP50Ms float64 `json:"noise_p50_ms"`
	Disturbed  bool    `json:"disturbed"`
	outcome
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", runSeconds, "run length; the fixed round counts are sized for 20 and scale with it")
		trace        = flag.Int("trace", 0, "1 = traced pass (per-layer metrics), 0 = untraced pass (end-to-end metrics)")
		out          = flag.String("out", "", "suite mode: write every run's results to this JSON file")
		selfcheck    = flag.Int("selfcheck", 0, "run the suite N times and compare the spread of medians with the bounds")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		list         = flag.Bool("list", false, "print workload and metric names with units")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as generated from the definitions")
	)
	flag.Parse()
	opt := options{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		procs: min(runtime.NumCPU(), 4), outDir: ".bench_build", sz: fullSizes,
	}
	var err error
	switch {
	case *list:
		printList()
	case *spec:
		var b []byte
		if b, err = specJSON(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	case *compare:
		err = compareFiles(flag.Args())
	case *selfcheck > 0:
		err = selfCheck(*selfcheck, opt)
	case *workloadName == "all":
		err = runSuite(opt, *out)
	default:
		err = runOne(*workloadName, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, opt options) (workload, error) {
	switch name {
	case "join_converge":
		return newConverge(opt, "T9", opt.sz.joinRecords, opt.sz.joinRounds)
	case "extract_converge":
		return newConverge(opt, "T8", opt.sz.extractRecords, opt.sz.extractRounds)
	case "serve_sessions":
		return newServe(opt)
	case "store_cycle":
		return newStore(opt)
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", name)
}

// setUps is how often a run sets its workload up; setup_s is the median.
// Seven, not the issue's three: over eight runs on one seed the median of
// three set-ups of join_converge (20 ms each) ranged over 47 % of itself,
// the median of seven over 18 %, where more set-ups gain nothing further.
const setUps = 7

// measureWorkload runs one workload in this process: set-up several times,
// one untimed preparation, the measured rounds and, on a traced run, the
// layer replays.
func measureWorkload(name string, opt options) (*runInfo, error) {
	start := time.Now()
	runtime.GOMAXPROCS(opt.procs)
	d := &runData{opt: opt, ops: &tally{}}
	d.plain, d.traced = newRec(d.ops), newRec(d.ops)
	if opt.trace {
		d.tr = newTracer()
		d.traced.tr = d.tr
	}
	// Every set-up starts from a fresh workload, the one before dropped and
	// collected, so that no run holds its inputs twice.
	var w workload
	for i := 0; i < setUps; i++ {
		var err error
		if w, err = newWorkload(name, opt); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d.setups = append(d.setups, time.Since(t0).Seconds())
	}
	defer w.close()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if err := w.measure(d); err != nil {
		return nil, err
	}
	if opt.trace {
		d.traced.round = -1
		if _, err := d.traced.do("harness.replay", 1, func() error { return w.replay(d.traced) }); err != nil {
			return nil, err
		}
		if err := d.tr.write(filepath.Join(opt.outDir, "trace", name+".json"), name); err != nil {
			return nil, err
		}
	}
	info := &runInfo{
		Workload: name, Seed: opt.seed, Trace: opt.trace, Procs: opt.procs,
		Rounds: d.rounds, Setups: len(d.setups), NoiseP50Ms: median(d.noise) * ms, Disturbed: d.noiseSpread() > 1.25,
		outcome: outcome{Attempted: d.ops.attempted.Load(), Failed: d.ops.failed.Load(), Metrics: map[string]metric{}},
	}
	info.Correct = info.Failed == 0
	for _, def := range defsFor(opt.trace) {
		v := def.value(d)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", def.name)
		}
		info.Metrics[def.name] = metric{v, def.unit}
	}
	info.WallS = time.Since(start).Seconds()
	return info, nil
}

// runOne measures one workload and prints every metric by name, then the
// run's information as one JSON line, then the outcome as the last line.
func runOne(name string, opt options) error {
	info, err := measureWorkload(name, opt)
	if err != nil {
		return err
	}
	printRun(info)
	full, err := json.Marshal(info)
	if err != nil {
		return err
	}
	last, err := json.Marshal(info.outcome)
	if err != nil {
		return err
	}
	fmt.Printf("info %s\n%s\n", full, last)
	return nil
}
