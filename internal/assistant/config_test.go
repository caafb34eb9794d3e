package assistant

import (
	"runtime"
	"testing"

	"iflex/internal/alog"
)

// TestAlphaDefaults pins the α resolution rules: the zero value keeps the
// paper's 0.1 default, ExplicitZero expresses a literal α = 0 (the
// Section 5.1 formula with an always-answering oracle), and explicit
// positive values pass through.
func TestAlphaDefaults(t *testing.T) {
	if got := (Config{}).withDefaults().Alpha; got != 0.1 {
		t.Errorf("default Alpha = %v, want 0.1", got)
	}
	if got := (Config{Alpha: ExplicitZero}).withDefaults().Alpha; got != 0 {
		t.Errorf("ExplicitZero Alpha = %v, want 0", got)
	}
	if got := (Config{Alpha: 0.25}).withDefaults().Alpha; got != 0.25 {
		t.Errorf("explicit Alpha = %v, want 0.25", got)
	}
}

// TestWorkersDefaultMatchesEngine: the session default must resolve the
// same way engine.Context.workers does (GOMAXPROCS, not NumCPU), so the
// simulation fan-out cannot oversubscribe the pool under a CPU quota.
func TestWorkersDefaultMatchesEngine(t *testing.T) {
	if got, want := (Config{}).withDefaults().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default Workers = %d, want GOMAXPROCS(0) = %d", got, want)
	}
	if got := (Config{Workers: 3}).withDefaults().Workers; got != 3 {
		t.Errorf("explicit Workers = %d, want 3", got)
	}
}

// TestSubsetFractionExplicitZero: a negative subsetFraction selects the
// minimal subset — one document per extensional table — instead of the
// automatic 5–30% sizing, while the zero value keeps the automatic rule.
func TestSubsetFractionExplicitZero(t *testing.T) {
	env := testEnv()
	prog := alog.MustParse(testProg)
	minimal := NewSession(env, prog, testOracle(), Config{subsetFraction: ExplicitZero})
	if len(minimal.subset) != 1 {
		t.Errorf("ExplicitZero subset has %d docs, want 1 (one per table): %v",
			len(minimal.subset), minimal.subset)
	}
	auto := NewSession(env, prog, testOracle(), Config{})
	// testEnv has 4 documents, under the ≤20 threshold: automatic sizing
	// keeps them all.
	if len(auto.subset) != 4 {
		t.Errorf("automatic subset has %d docs, want 4: %v", len(auto.subset), auto.subset)
	}
}

// TestExplicitZeroAlphaSessionRuns: an α = 0 simulation session must run
// to completion — the configuration the zero-value trap used to make
// inexpressible.
func TestExplicitZeroAlphaSessionRuns(t *testing.T) {
	s := NewSession(testEnv(), alog.MustParse(testProg), testOracle(), Config{
		Strategy: Simulation{},
		Alpha:    ExplicitZero,
		Workers:  2,
	})
	if s.Config.Alpha != 0 {
		t.Fatalf("session Alpha = %v, want 0", s.Config.Alpha)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Error("session produced no iterations")
	}
	for _, it := range res.Iterations {
		if it.Evals < 0 || it.CacheHits < 0 {
			t.Errorf("iteration %d has negative counter deltas: %+v", it.N, it)
		}
	}
	if res.Stats.NodesEvaluated == 0 {
		t.Error("session stats recorded no evaluations")
	}
}
