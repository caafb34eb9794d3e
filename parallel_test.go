// Determinism of parallel evaluation: a session run with a worker pool
// must be byte-identical to a serial run — same transcript, same picked
// questions, same final table. This is the guarantee DESIGN.md's
// concurrency model section makes and the parallel speedup relies on.
package iflex_test

import (
	"testing"

	"iflex"
	"iflex/internal/corpus"
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
	det := func(r *iflex.SessionResult) [13]int64 {
		s := r.Stats
		return [13]int64{s.NodesEvaluated, s.CacheHits, s.TuplesBuilt, s.ProcCalls,
			s.FuncCalls, s.VerifyCalls, s.RefineCalls, s.LimitFallbacks,
			s.SimTuplePairs, s.SimValuePairsProbed, s.SimValuePairsVerified, s.CmpOperandsParsed,
			s.ConstraintStages}
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
	if serial.Stats.ConstraintStages == 0 {
		t.Error("no constraint stage computed; the counter looks dead")
	}
}
