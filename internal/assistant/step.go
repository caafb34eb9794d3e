package assistant

import (
	"context"
	"errors"
	"fmt"
	"time"

	"iflex/internal/compact"
	"iflex/internal/engine"
)

// This file is the session's refinement loop. There is one loop body,
// iterate — fold the answers in, execute one subset iteration, record it,
// ask the strategy for the next questions — and one tail, finalize, which
// computes the complete result. Run, Step and Finalize are drivers over
// the two and differ only in who answers and in how the deadline is bound.
//
// Run binds Config.Deadline once over the whole loop and answers from the
// session's Oracle: expiry ends the loop and the tail returns the best
// partial result. Step and Finalize bind a fresh deadline per call and
// take the answers from the caller: a service session may live for hours
// between steps, and a deadline bound once would leave every later step
// running against a long-expired context. An expired step degrades that
// step only. It can poison neither the reuse cache (post-cut results are
// never cached) nor the convergence monitor (cut iterations are excluded,
// see converged). The two drivers may be mixed: Run finishes a session
// that was stepped part of the way.

// StepResult reports one interactive step: the iteration just executed,
// the next questions to answer, and whether the loop is over.
type StepResult struct {
	// Iteration is the subset iteration this step executed (zero-valued
	// when Done was reached without executing).
	Iteration Iteration
	// Questions are the next-effort questions to answer on the following
	// Step call (positionally). Empty when Done.
	Questions []Question
	// Converged reports the convergence monitor's current verdict.
	Converged bool
	// Done means the loop ended (convergence, question space exhausted, or
	// the iteration bound): call Finalize for the full result. A fired
	// per-step deadline does NOT end the loop — that step comes back
	// degraded with no questions, and the next step gets a fresh window.
	// Further Step calls after Done keep returning Done without executing,
	// though their answers are still folded into the program.
	Done bool
	// Degraded is non-nil when this step's deadline expired or documents
	// were quarantined during it (see compact.Degraded).
	Degraded *compact.Degraded
}

var errFinalized = errors.New("assistant: session already finalized")

// record stamps it with the engine-counter deltas since the previous
// iteration (fresh evaluations vs reuse-cache hits, delta-replayed vs
// recomputed tuples) and the wall time since start, appends it to the log
// and returns it.
func (s *Session) record(it Iteration, start time.Time) Iteration {
	now := s.ctx.Stats
	it.Evals = now.NodesEvaluated - s.base.NodesEvaluated
	it.CacheHits = now.CacheHits - s.base.CacheHits
	it.TuplesReused = now.TuplesReused - s.base.TuplesReused
	it.TuplesRecomputed = now.TuplesRecomputed - s.base.TuplesRecomputed
	s.base = now
	it.WallS = time.Since(start).Seconds()
	s.res.Iterations = append(s.res.Iterations, it)
	return it
}

// bind arms the best-effort deadline d and returns the unbind function.
// When the deadline fires, in-flight operator loops cut at tuple/chunk
// granularity and return their partial output instead of an error. It
// always binds — a never-firing background context when d is zero —
// because BindCancel is also what resets the degradation report: without
// it, a deadline that expired two steps ago would still be attached to
// every later step's (complete) result.
func (s *Session) bind(d time.Duration) func() {
	c, cancel := context.Background(), func() {}
	if d > 0 {
		c, cancel = context.WithTimeout(c, d)
	}
	s.ctx.BindCancel(c)
	return func() {
		s.ctx.Unbind()
		cancel()
	}
}

// applyAnswers folds the answers to the pending questions into the
// program: every pending question is marked asked and counted; known
// answers become domain constraints and are logged on the iteration that
// asked them. Fewer answers than pending questions treats the remainder as
// "I do not know"; more is an error.
func (s *Session) applyAnswers(answers []Answer) error {
	if len(answers) > len(s.pending) {
		return fmt.Errorf("assistant: %d answers for %d pending questions", len(answers), len(s.pending))
	}
	for i, q := range s.pending {
		ans := DontKnow()
		if i < len(answers) {
			ans = answers[i]
		}
		s.asked[q.key()] = true
		s.res.QuestionsAsked++
		if v, ok := constraintValue(ans); ok {
			if err := s.Prog.AddConstraint(q.Attr, q.Feature, v); err != nil {
				return fmt.Errorf("assistant: applying answer to %s: %w", q, err)
			}
			// Questions come only from an execution, which compiled s.plan.
			plan, err := s.plan.WithConstraint(q.Attr, q.Feature, v)
			if err != nil {
				return fmt.Errorf("assistant: applying answer to %s: %w", q, err)
			}
			s.plan = plan
		}
		if n := len(s.res.Iterations); n > 0 {
			it := &s.res.Iterations[n-1]
			it.Questions = append(it.Questions, QA{Question: q, Answer: ans})
		}
	}
	s.pending = nil
	return nil
}

// iterate is the loop body: fold the answers to the previous iteration's
// questions into the program, execute one subset iteration, record it and
// ask the strategy for the next questions. The caller has bound the
// deadline it runs under.
func (s *Session) iterate(answers []Answer) (*StepResult, error) {
	if err := s.applyAnswers(answers); err != nil {
		return nil, err
	}
	if !s.loopDone {
		s.iterN++
		s.loopDone = s.iterN > s.Config.MaxIterations
	}
	if s.loopDone {
		return &StepResult{Converged: s.converged(), Done: true}, nil
	}

	start := time.Now()
	table, assigns, err := s.execute(true)
	if err != nil {
		return nil, err
	}
	size := table.NumExpandedTuples()
	cut := s.ctx.Cancelled()
	s.sizes = append(s.sizes, size)
	s.assigns = append(s.assigns, assigns)
	s.cuts = append(s.cuts, cut)

	// A cut iteration's output is partial, so questions scored on it would
	// be noise: none are asked. Nor are any from a cut simulation, whose
	// skipped or cut-short trials score as the best questions: the iteration
	// counts as cut. A cut one is excluded from the convergence monitor and
	// the engine never caches post-cut results, so the next iteration
	// re-executes (and re-simulates) cleanly.
	var questions []Question
	if !cut && !s.converged() {
		if space := questionSpace(s.attrs, s.Env.Features, s.asked); len(space) > 0 {
			questions, err = s.Config.Strategy.Next(s, space, s.Config.QuestionsPerIteration)
			if err != nil {
				return nil, err
			}
			if cut = s.ctx.Cancelled(); cut {
				questions, s.cuts[len(s.cuts)-1] = nil, true
			}
		}
	}
	// Nothing left to ask ends the loop: convergence, an exhausted question
	// space, or a strategy that picks none. A cut by itself does not — the
	// driver knows whether its deadline has another window to offer.
	s.loopDone = !cut && len(questions) == 0
	s.pending = questions
	return &StepResult{
		Iteration: s.record(Iteration{N: s.iterN, Tuples: size, Assignments: assigns, Mode: "subset"}, start),
		Questions: questions,
		Converged: s.converged(),
		Done:      s.loopDone,
		Degraded:  s.ctx.DegradedReport(),
	}, nil
}

// finalize is the loop's tail: switch to reuse mode and compute the
// complete result over all documents. The session counts as finished only
// once that result exists, so a faulted full pass can be retried.
func (s *Session) finalize() (*Result, error) {
	start := time.Now()
	res := s.res
	res.Converged = s.converged()
	final, _, err := s.execute(false)
	if err != nil {
		return nil, err
	}
	final = s.ctx.AttachDegraded(final)
	res.Final = final
	res.FinalTuples = final.NumExpandedTuples()
	res.Degraded = final.Degraded
	s.record(Iteration{
		N: len(res.Iterations) + 1, Tuples: res.FinalTuples,
		Assignments: final.NumAssignments(), Mode: "full",
	}, start)
	res.Stats = s.ctx.Stats
	s.finished = true
	return res, nil
}

// Run drives the loop to its end against the session's Oracle — until
// convergence, an exhausted question space or the iteration bound — then
// computes the complete result in reuse (full) mode. Config.Deadline covers
// the whole call: when it fires the loop stops asking and the result is the
// best partial one. Questions left pending by earlier Step calls are
// answered by the Oracle first.
func (s *Session) Run() (*Result, error) {
	if s.finished {
		return nil, errFinalized
	}
	defer s.bind(s.Config.Deadline)()
	for !s.loopDone {
		answers := make([]Answer, len(s.pending))
		for i, q := range s.pending {
			answers[i] = s.Oracle.Answer(q)
		}
		if _, err := s.iterate(answers); err != nil {
			return nil, err
		}
		if s.ctx.Cancelled() {
			break // the one deadline has no further window to offer
		}
	}
	return s.finalize()
}

// Step advances the session one iteration under a per-step deadline of
// Config.Deadline (re-armed each call; see StepDeadline).
func (s *Session) Step(answers []Answer) (*StepResult, error) {
	return s.StepDeadline(s.Config.Deadline, answers)
}

// StepDeadline folds the answers to the previous step's questions into
// the program, executes one subset iteration, and returns the next
// questions. The deadline d (0 = none) covers this call alone: every step
// of a long-lived session gets a fresh window, and a step that expired
// degrades that step only, so the next step starts clean. Only the
// iteration budget bounds a session whose every step expires.
func (s *Session) StepDeadline(d time.Duration, answers []Answer) (*StepResult, error) {
	if s.finished {
		return nil, errFinalized
	}
	defer s.bind(d)()
	return s.iterate(answers)
}

// Finalize computes the complete result over all documents (reuse mode)
// and returns the accumulated session Result. The deadline d (0 = none)
// covers this call alone. The session stays readable afterwards (Program,
// StatsSnapshot, Explain) but cannot step again. If the full pass fails,
// the session is not finalized and the call may be repeated.
func (s *Session) Finalize(d time.Duration) (*Result, error) {
	if s.finished {
		return nil, errFinalized
	}
	defer s.bind(d)()
	return s.finalize()
}

// Pending returns the questions awaiting answers from the next Step call.
func (s *Session) Pending() []Question { return s.pending }

// Finished reports whether the session holds its final result.
func (s *Session) Finished() bool { return s.finished }

// StatsSnapshot renders the session's engine counters. Call it only while
// no step is in flight (the same quiescence contract as engine.Stats).
func (s *Session) StatsSnapshot() engine.StatsSnapshot {
	return s.ctx.Stats.Snapshot()
}

// Explain renders the EXPLAIN ANALYZE tree of the last executed plan.
// It requires Config.Trace (tracing from the first execution); without a
// plan executed yet it returns an error.
func (s *Session) Explain() (string, error) {
	if s.prevPlan == nil {
		return "", fmt.Errorf("assistant: no plan executed yet")
	}
	return s.prevPlan.Explain(s.ctx)
}
