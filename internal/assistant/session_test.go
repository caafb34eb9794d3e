package assistant

import (
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/feature"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Strategy == nil || c.Alpha != 0.1 || c.ConvergenceWindow != 3 ||
		c.QuestionsPerIteration != 2 || c.MaxIterations != 50 {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit values survive.
	c = Config{Alpha: 0.5, ConvergenceWindow: 5, QuestionsPerIteration: 1, MaxIterations: 7}.withDefaults()
	if c.Alpha != 0.5 || c.ConvergenceWindow != 5 || c.QuestionsPerIteration != 1 || c.MaxIterations != 7 {
		t.Errorf("explicit config overridden: %+v", c)
	}
}

func TestMaxIterationsBound(t *testing.T) {
	env := testEnv()
	prog := alog.MustParse(testProg)
	// An oracle that never answers: counts never change, but the session
	// must still terminate within MaxIterations even with window 100.
	oracle := InteractiveOracleFunc(func(Question) Answer { return DontKnow() })
	s := NewSession(env, prog, oracle, Config{MaxIterations: 4, ConvergenceWindow: 100})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	subsetIters := 0
	for _, it := range res.Iterations {
		if it.Mode == "subset" {
			subsetIters++
		}
	}
	if subsetIters > 4 {
		t.Errorf("iterations = %d, want <= 4", subsetIters)
	}
}

// InteractiveOracleFunc adapts a function to the Oracle interface for tests.
type InteractiveOracleFunc func(Question) Answer

// Answer implements Oracle.
func (f InteractiveOracleFunc) Answer(q Question) Answer { return f(q) }

func TestQuestionSpaceExhaustionEndsSession(t *testing.T) {
	env := testEnv()
	prog := alog.MustParse(testProg)
	// Answer everything "don't know": the space drains at 2 questions per
	// iteration and the session ends when it is empty (or converges).
	oracle := InteractiveOracleFunc(func(Question) Answer { return DontKnow() })
	s := NewSession(env, prog, oracle, Config{ConvergenceWindow: 1000, MaxIterations: 1000})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	space := len(questionSpace(prog.Attrs(), env.Features, constrained(prog)))
	if res.QuestionsAsked != space {
		t.Errorf("asked %d questions, space holds %d", res.QuestionsAsked, space)
	}
}

func TestQuestionsPerIteration(t *testing.T) {
	env := testEnv()
	prog := alog.MustParse(testProg)
	s := NewSession(env, prog, testOracle(), Config{QuestionsPerIteration: 1})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iterations {
		if len(it.Questions) > 1 {
			t.Errorf("iteration %d asked %d questions", it.N, len(it.Questions))
		}
	}
}

func TestAnswersAreAppliedAsConstraints(t *testing.T) {
	env := testEnv()
	prog := alog.MustParse(testProg)
	s := NewSession(env, prog, testOracle(), Config{})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	refined := s.Program()
	// The italic-font answer for p must be in the refined program.
	if !refined.HasConstraint(alog.AttrRef{Pred: "ext", Var: "p"}, "italic-font") {
		t.Errorf("refined program misses italic constraint:\n%s", refined)
	}
	// "I do not know" answers must not add constraints.
	for _, r := range refined.Rules {
		for _, l := range r.Body {
			if l.Kind == alog.LitConstraint && l.Cons.Value == feature.Unknown {
				t.Errorf("unknown answer recorded as constraint: %v", l)
			}
		}
	}
}

func TestSimulationSharesReuseCache(t *testing.T) {
	env := testEnv()
	prog := alog.MustParse(testProg)
	s := NewSession(env, prog, testOracle(), Config{Strategy: Simulation{}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Simulations compile trial programs whose untouched subtrees must hit
	// the shared cache; without reuse the hit count would be near zero.
	if res.Stats.CacheHits < res.Stats.NodesEvaluated/4 {
		t.Errorf("reuse ineffective: %d hits vs %d evals", res.Stats.CacheHits, res.Stats.NodesEvaluated)
	}
}

func TestSequentialRanksJoinAttributesFirst(t *testing.T) {
	// In a program with a similarity join, the joined attributes must
	// outrank the merely-compared ones.
	prog := alog.MustParse(`
a(x, <t>, <v>) :- A(x), extA(x, t, v).
b(y, <u>) :- B(y), extB(y, u).
Q(t) :- a(x, t, v), b(y, u), similar(t, u), v > 10.
extA(x, t, v) :- from(x, t), from(x, v).
extB(y, u) :- from(y, u).
`)
	rank := attrImportance(prog)
	tRank := rank[alog.AttrRef{Pred: "extA", Var: "t"}]
	vRank := rank[alog.AttrRef{Pred: "extA", Var: "v"}]
	if tRank <= vRank {
		t.Errorf("join attribute t (%d) should outrank comparison attribute v (%d)", tRank, vRank)
	}
}

func TestTranscriptRendering(t *testing.T) {
	env := testEnv()
	prog := alog.MustParse(testProg)
	s := NewSession(env, prog, testOracle(), Config{})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Transcript()
	for _, want := range []string{"iteration 1 (subset)", "(full)", "converged="} {
		if !strings.Contains(tr, want) {
			t.Errorf("transcript missing %q:\n%s", want, tr)
		}
	}
}
