package assistant

import (
	"iflex/internal/alog"
	"iflex/internal/engine"
)

// QuestionSpaceForTest exposes questionSpace to the external test package
// (delta_test.go lives in assistant_test so it can import corpus, which
// itself imports assistant).
var QuestionSpaceForTest = questionSpace

// KeyForTest exposes the question's asked/known bookkeeping key.
func (q Question) KeyForTest() string { return q.key() }

// OracleConfig returns cfg with the two differential-oracle toggles set:
// delta reuse and the plan optimizer each stay on or go off. They are not
// configuration — results are byte-identical either way — so only tests,
// which prove exactly that, can reach them.
func OracleConfig(cfg Config, delta, optimize bool) Config {
	cfg.noDeltaReuse, cfg.noOptimizer = !delta, !optimize
	return cfg
}

// SetChunkHook installs an engine.Context.ChunkHook on the session's
// private context (deterministic latency injection, internal/fault).
func (s *Session) SetChunkHook(h func(start, end int) error) { s.ctx.ChunkHook = h }

// CheckPlansForTest hands f every plan the session builds, before it is
// optimized: each base plan (q and v zero) and each simulation trial with
// the question and answer it adds to the session's program. Trials call f
// concurrently.
func (s *Session) CheckPlansForTest(f func(prog *alog.Program, q Question, v string, plan *engine.Plan)) {
	s.planCheck = f
}
