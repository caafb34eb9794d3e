// Determinism of parallel evaluation: a session run with a worker pool
// must be byte-identical to a serial run — same transcript, same picked
// questions, same final table. This is the guarantee DESIGN.md's
// concurrency model section makes and the parallel speedup relies on.
package iflex_test

import (
	"fmt"
	"testing"

	"iflex"
	"iflex/internal/corpus"
	"iflex/internal/experiments"
	"iflex/internal/store"
)

// runT9 executes the Table 5 simulation scenario for T9 with the given
// worker count and returns the session result.
func runT9(t *testing.T, workers int) *iflex.SessionResult {
	t.Helper()
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(30, 1)
	env := task.Env(c)
	prog, err := iflex.ParseProgram(task.Program)
	if err != nil {
		t.Fatal(err)
	}
	session := iflex.NewSession(env, prog, task.Oracle(), iflex.SessionConfig{
		Strategy:   iflex.SimulationStrategy,
		SubsetSeed: 1,
		Workers:    workers,
	})
	res, err := session.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParallelSessionDeterminism(t *testing.T) {
	serial := runT9(t, 1)
	par := runT9(t, 8)
	if st, pt := serial.Transcript(), par.Transcript(); st != pt {
		t.Errorf("transcripts diverge:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", st, pt)
	}
	if sf, pf := serial.Final.String(), par.Final.String(); sf != pf {
		t.Errorf("final tables diverge:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", sf, pf)
	}
}

// TestParallelStatsDeterminism extends the byte-identity guarantee to the
// engine counters: every deterministic stats total and every per-iteration
// evals/cache-hits delta must match between Workers=1 and Workers=8. Only
// the pool counters and the per-operator wall times may differ.
func TestParallelStatsDeterminism(t *testing.T) {
	serial := runT9(t, 1)
	par := runT9(t, 8)
	det := func(r *iflex.SessionResult) [12]int64 {
		s := r.Stats
		return [12]int64{s.NodesEvaluated, s.CacheHits, s.TuplesBuilt, s.ProcCalls,
			s.FuncCalls, s.VerifyCalls, s.RefineCalls, s.LimitFallbacks,
			s.SimTuplePairs, s.SimValuePairsProbed, s.SimValuePairsVerified, s.CmpOperandsParsed}
	}
	if det(serial) != det(par) {
		t.Errorf("deterministic stats diverge:\n--- workers=1 ---\n%+v\n--- workers=8 ---\n%+v",
			det(serial), det(par))
	}
	if len(serial.Iterations) != len(par.Iterations) {
		t.Fatalf("iteration counts diverge: %d vs %d", len(serial.Iterations), len(par.Iterations))
	}
	for i, s := range serial.Iterations {
		p := par.Iterations[i]
		if s.Evals != p.Evals || s.CacheHits != p.CacheHits {
			t.Errorf("iteration %d counters diverge: workers=1 evals=%d hits=%d, workers=8 evals=%d hits=%d",
				s.N, s.Evals, s.CacheHits, p.Evals, p.CacheHits)
		}
	}
	if serial.Stats.NodesEvaluated == 0 || serial.Stats.CacheHits == 0 {
		t.Error("session recorded no evaluations or no cache hits; counters look dead")
	}
	if s := serial.Stats; s.SimTuplePairs == 0 || s.SimValuePairsProbed < s.SimValuePairsVerified || s.SimValuePairsVerified == 0 {
		t.Errorf("similarity funnel looks dead: %d tuple pairs, %d probed, %d verified",
			s.SimTuplePairs, s.SimValuePairsProbed, s.SimValuePairsVerified)
	}
	if serial.Stats.CmpOperandsParsed == 0 {
		t.Error("np < bp parsed no operand; the counter looks dead")
	}
}

// TestParallelCompareHarness exercises the iflex-bench "parallel" table:
// it must report Identical=true and a positive speedup value.
func TestParallelCompareHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness: runs the scenario twice; skipped in -short")
	}
	res, err := experiments.ParallelCompare(
		experiments.Options{Seed: 1, Strategy: "sim", Workers: 4}, "T9", 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Error("parallel run diverged from serial")
	}
	if res.Speedup <= 0 {
		t.Errorf("speedup = %v, want > 0", res.Speedup)
	}
}

// TestSessionSweepT8T9 runs whole T8 (comparisons only, no cell shared)
// and T9 (comparison over a similarity join's output, every cell shared)
// sessions across Workers 1/8 × delta × optimizer × indexed/live:
// transcript and final table are the same everywhere, and the
// deterministic counters — FuncCalls and CmpOperandsParsed among them —
// are the same wherever delta and optimizer settings are.
func TestSessionSweepT8T9(t *testing.T) {
	if testing.Short() {
		t.Skip("32 whole sessions; skipped in -short")
	}
	for _, id := range []string{"T8", "T9"} {
		task, err := corpus.TaskByID(id)
		if err != nil {
			t.Fatal(err)
		}
		c := task.Generate(24, 2)
		var all []*iflex.Document
		for _, name := range task.Tables {
			all = append(all, c.DocsOf(name)...)
		}
		outputs := map[string]bool{}
		type group struct{ delta, optimize bool }
		counters := map[group][8]int64{}
		for _, indexed := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				for _, delta := range []bool{false, true} {
					for _, optimize := range []bool{false, true} {
						env := task.Env(c)
						if indexed {
							ms := store.NewMemStore(all)
							env.DocIndex, env.Postings = ms, ms
						}
						prog, err := iflex.ParseProgram(task.Program)
						if err != nil {
							t.Fatal(err)
						}
						res, err := iflex.NewSession(env, prog, task.Oracle(), iflex.SessionConfig{
							Strategy: iflex.SimulationStrategy, SubsetSeed: 2, Workers: workers,
							DisableDeltaReuse: !delta, DisableOptimizer: !optimize,
						}).Run()
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s indexed=%t workers=%d delta=%t opt=%t", id, indexed, workers, delta, optimize)
						outputs[res.Transcript()+"\x00"+res.Final.String()] = true
						if len(outputs) != 1 {
							t.Fatalf("%s: transcript or table differs from the first configuration's", where)
						}
						s := res.Stats
						got := [8]int64{s.TuplesBuilt, s.FuncCalls, s.VerifyCalls, s.RefineCalls,
							s.LimitFallbacks, s.TuplesRecomputed, s.SimValuePairsVerified, s.CmpOperandsParsed}
						if prev, ok := counters[group{delta, optimize}]; ok && prev != got {
							t.Fatalf("%s: counters %v, earlier configurations %v", where, got, prev)
						}
						counters[group{delta, optimize}] = got
						if s.CmpOperandsParsed == 0 {
							t.Fatalf("%s: no operand parsed", where)
						}
					}
				}
			}
		}
	}
}
