package assistant

import (
	"context"
	"maps"

	"iflex/internal/alog"
	"iflex/internal/engine"
	"iflex/internal/feature"
)

// QuestionSpaceForTest is the question space of prog for the external test
// package (delta_test.go lives in assistant_test so it can import corpus,
// which itself imports assistant): the questions about its attributes that
// neither asked nor its constraints answer.
func QuestionSpaceForTest(prog *alog.Program, reg *feature.Registry, asked map[string]bool) []Question {
	seen := constrained(prog)
	maps.Copy(seen, asked)
	return questionSpace(prog.Attrs(), reg, seen)
}

// KeyForTest exposes the question's asked/known bookkeeping key.
func (q Question) KeyForTest() string { return q.key() }

// OracleConfig returns cfg with the differential-oracle toggle set: delta
// reuse stays on or goes off. It is not configuration — results are
// byte-identical either way — so only tests, which prove exactly that, can
// reach it.
func OracleConfig(cfg Config, delta bool) Config {
	cfg.noDeltaReuse = !delta
	return cfg
}

// SubsetConfig returns cfg with the test-only subset fraction set: the
// share of each extensional table's documents the subset iterations run
// over, in place of the automatic 5–30%.
func SubsetConfig(cfg Config, frac float64) Config {
	cfg.subsetFraction = frac
	return cfg
}

// CheckPlansForTest hands f every plan the session executes, with its
// expanded result size: each base plan (q and v zero) and each simulation
// trial with the question and answer it adds to the session's program.
// Trials call f concurrently.
func (s *Session) CheckPlansForTest(f func(prog *alog.Program, q Question, v string, plan *engine.Plan, size int)) {
	s.planCheck = f
}

// StepContextForTest is one step under a cancellation the test fires
// itself (c) instead of a deadline, so that a test can cut the step at an
// exact point.
func (s *Session) StepContextForTest(c context.Context, answers []Answer) (*StepResult, error) {
	s.ctx.BindCancel(c)
	defer s.ctx.Unbind()
	return s.iterate(answers)
}
