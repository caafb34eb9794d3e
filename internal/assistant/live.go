package assistant

import (
	"time"

	"iflex/internal/compact"
	"iflex/internal/engine"
)

// This file is the session surface of live-corpus incremental
// evaluation. A session normally runs over a frozen corpus; when the
// backing document store commits a mutation (store.Mutation), the owner
// folds the resulting delta in with ApplyCorpusDelta and re-runs the
// current program with Reevaluate. The engine replays every tuple
// sourced entirely from unchanged documents out of its displaced memos
// (see engine/corpus.go), so the re-run costs roughly the changed
// fraction of the corpus, not a from-scratch evaluation.

// LiveUpdate reports one full re-evaluation after a corpus delta: the
// complete result table plus this run's share of the engine's reuse
// counters (engine stats accumulate across executions; these fields are
// already differenced against the pre-run snapshot).
type LiveUpdate struct {
	// Final is the complete result over the mutated corpus, with the
	// degradation report attached when the run was cut or documents are
	// quarantined.
	Final       *compact.Table
	FinalTuples int
	// TuplesReused counts tuples replayed from memos (including the
	// displaced corpus priors); TuplesRecomputed counts tuples evaluated
	// afresh. Their ratio is the incremental win.
	TuplesReused     int64
	TuplesRecomputed int64
	// CorpusPriorHits counts displaced cache entries the run picked up.
	CorpusPriorHits int64
	WallS           float64
}

// ApplyCorpusDelta folds one committed corpus mutation into the
// session. refresh, when non-nil, runs first and must rebuild the Env's
// document tables from the mutated store (the caller knows which
// predicates bind which store views — e.g. engine.Env.AddDocTable with
// store.DiskStore.Docs after Commit). The engine context is then
// invalidated for the delta, and the question-scoring subset is redrawn
// so it tracks the live corpus (removed ids drop out, added ids become
// eligible; nothing keyed under the old subset survives the
// invalidation, so the redraw costs no extra reuse).
//
// Like stepping, this may only be called while no evaluation is in
// flight. It is legal on a finalized session: watch mode keeps folding
// deltas in and re-running Reevaluate after the refinement dialogue is
// over.
func (s *Session) ApplyCorpusDelta(d *engine.CorpusDelta, refresh func(*engine.Env)) {
	if refresh != nil {
		refresh(s.Env)
	}
	if d.Empty() {
		return
	}
	s.ctx.ApplyCorpusDelta(d)
	s.subset = s.sampleSubset()
}

// Reevaluate runs the current program over the full corpus under a
// deadline (0 = none) and reports what the run reused versus
// recomputed. After ApplyCorpusDelta this is the incremental
// re-evaluation; the result is byte-identical to what a fresh session
// over the mutated corpus would compute.
func (s *Session) Reevaluate(d time.Duration) (*LiveUpdate, error) {
	defer s.bind(d)()
	base := s.ctx.Stats
	start := time.Now()
	final, _, err := s.execute(false)
	if err != nil {
		return nil, err
	}
	final = s.ctx.AttachDegraded(final)
	st := s.ctx.Stats
	up := &LiveUpdate{
		Final:            final,
		FinalTuples:      final.NumExpandedTuples(),
		TuplesReused:     st.TuplesReused - base.TuplesReused,
		TuplesRecomputed: st.TuplesRecomputed - base.TuplesRecomputed,
		CorpusPriorHits:  st.CorpusPriorHits - base.CorpusPriorHits,
		WallS:            time.Since(start).Seconds(),
	}
	// Advance the counter baselines past this run so a later iteration's
	// log entry does not absorb the live run's work.
	s.base = st
	return up, nil
}
