package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
)

// toySizes keep the smoke test within seconds.
var toySizes = sizes{
	pool: 2, joinRecords: 4, extractRecords: 6,
	serveRecords: 4, servePool: 2,
	dblifePages: 120, booksRecords: 4, commits: 2, putPages: 1,
	probePages: 2, prefixPages: 60, replayPages: 60, maxSteps: 4,
	joinRounds: 2, extractRounds: 2, storeRounds: 2, serveSessions: 4,
}

// TestSmoke runs all four workloads at toy sizes, untraced and traced,
// and checks the reporting contract: BENCHMARK.json equals the
// definitions in this package; each pass emits exactly its metrics, each
// once, well named, with a unit and a finite value; no operation fails;
// and the store's exact counters repeat exactly.
func TestSmoke(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wantSpec, gotSpec benchmarkSpec
	if err := json.Unmarshal(want, &wantSpec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &gotSpec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantSpec, gotSpec) {
		t.Fatalf("BENCHMARK.json differs from the definitions; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	opt := options{seed: 1, seconds: runSeconds, procs: 2, outDir: t.TempDir(), sz: toySizes}
	run := func(workload string, traced bool) *runInfo {
		t.Helper()
		opt.trace = traced
		info, err := measureWorkload(workload, opt)
		if err != nil {
			t.Fatalf("%s (traced=%t): %v", workload, traced, err)
		}
		if info.Failed != 0 || !info.Correct || info.Attempted < 1 {
			t.Errorf("%s (traced=%t): %d of %d operations failed", workload, traced, info.Failed, info.Attempted)
		}
		return info
	}
	for _, w := range gotSpec.Workloads {
		for _, pass := range []struct {
			traced bool
			defs   []specMetric
		}{{false, gotSpec.EndToEnd}, {true, gotSpec.PerLayer}} {
			info := run(w.Name, pass.traced)
			if len(info.Metrics) != len(pass.defs) {
				t.Errorf("%s (traced=%t): %d metrics emitted, %d listed", w.Name, pass.traced, len(info.Metrics), len(pass.defs))
			}
			for _, def := range pass.defs {
				m, ok := info.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", w.Name, def.Name)
				case !nameRE.MatchString(def.Name):
					t.Errorf("%s: bad metric name", def.Name)
				case m.Unit == "" || m.Unit != def.Unit:
					t.Errorf("%s: %s has unit %q, listed as %q", w.Name, def.Name, m.Unit, def.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is not finite", w.Name, def.Name)
				case !pass.traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, def.Name, m.Value)
				}
			}
		}
	}

	a, b := run("store_cycle", true), run("store_cycle", true)
	for _, name := range []string{"store.bytes_per_page", "store.fsyncs_per_commit", "store.fsyncs_per_ingest"} {
		if a.Metrics[name].Value <= 0 || a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v, want the same positive count", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}
