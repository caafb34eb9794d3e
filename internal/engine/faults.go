package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync/atomic"

	"iflex/internal/compact"
)

// This file is the Context's fault part: what a best-effort evaluation
// reports beside its superset. A bound cancellation source cuts operator
// loops (BindCancel, Cancelled) and the documents a cut skipped are
// recorded (noteUnprocessed); a per-document fault quarantines the
// documents its unit read (guard) and the evaluation restarts over the
// survivors (evalRetrying). DegradedReport assembles both. Checkpoints
// read the bound source lock-free; everything else is under ctx.faults.mu.
// The barred documents themselves live in the evaluation mode
// (evalMode.barred), which is what the scans read.

// ErrQuarantined is the sentinel an operator pass returns (wrapped) when
// it quarantined documents: the pass's output is discarded and the
// evaluation is restarted over the surviving documents, so no table that
// ever saw a fault is cached or returned. Check with errors.Is.
var ErrQuarantined = errors.New("engine: documents quarantined during evaluation")

// maxQuarantineRestarts bounds the restart fixpoint; each restart
// quarantines at least one more document, so this is a safety net for a
// pathological corpus where a large fraction of documents fault.
const maxQuarantineRestarts = 100

// cancelState is one bound cancellation source. fired memoises the first
// observation of the done channel so later checkpoints skip the select;
// it is also the degradation report's expiry.
type cancelState struct {
	c     context.Context
	fired atomic.Bool
}

// BindCancel attaches a standard context to this engine context. Its
// cancellation degrades evaluation instead of failing it: every subsequent
// checkpoint (Eval entry, operator tuple/chunk loops, simulation fan-out)
// observes it, operator loops stop at tuple/chunk granularity, remaining
// documents are recorded as unprocessed, and the caller gets the partial —
// still superset-correct over the processed documents — table built so
// far. It also resets the degradation report collected for the previous
// binding. Bind before starting an evaluation and Unbind when done; like
// SetDocFilter it must not race with in-flight evaluations.
func (ctx *Context) BindCancel(c context.Context) {
	cs := &cancelState{c: c}
	ctx.faults.mu.Lock()
	ctx.faults.last, ctx.faults.unprocessed = cs, nil
	ctx.faults.mu.Unlock()
	ctx.faults.bound.Store(cs)
}

// Unbind detaches the bound cancellation source. The degradation state
// collected while bound remains readable through DegradedReport until
// the next BindCancel.
func (ctx *Context) Unbind() { ctx.faults.bound.Store(nil) }

// Cancelled is the engine's cancellation checkpoint: whether a bound
// cancellation has fired (never, with none bound). A fired source is
// memoised in its binding, which marks the degradation report expired;
// the caller stops its loop, records what it skipped via noteUnprocessed,
// and returns its partial output.
func (ctx *Context) Cancelled() bool {
	cs := ctx.faults.bound.Load()
	if cs == nil {
		return false
	}
	if cs.fired.Load() {
		return true
	}
	select {
	case <-cs.c.Done():
		cs.fired.Store(true)
		return true
	default:
		return false
	}
}

// cancelFired reports whether a bound cancellation has been observed;
// Eval uses it to keep results computed after the cut out of the reuse
// cache (a cut evaluation may be partial).
func (ctx *Context) cancelFired() bool {
	cs := ctx.faults.bound.Load()
	return cs != nil && cs.fired.Load()
}

// noteUnprocessed records the documents feeding the given tuples as
// unprocessed: a best-effort cut skipped them, and the degradation
// report must name them rather than let them vanish silently. It also
// counts one operator-loop cut (a scheduling-dependent counter, like the
// pool stats).
func (ctx *Context) noteUnprocessed(tuples []compact.Tuple) {
	statAdd(&ctx.Stats.DeadlineCuts, 1)
	if len(tuples) == 0 {
		return
	}
	ctx.faults.mu.Lock()
	defer ctx.faults.mu.Unlock()
	if ctx.faults.unprocessed == nil {
		ctx.faults.unprocessed = docSet{}
	}
	for _, tp := range tuples {
		ctx.faults.unprocessed.add(tp, nil)
	}
}

// DegradedReport assembles the degradation report for the work done
// since the last BindCancel: the deadline/cancel cut state, the
// documents left unprocessed by cuts, and the documents quarantined by
// per-document fault handling. It returns nil when the evaluation was
// complete and fault-free, so callers can attach it only when there is
// something to say.
func (ctx *Context) DegradedReport() *compact.Degraded {
	ctx.faults.mu.Lock()
	rep := &compact.Degraded{
		DeadlineExpired: ctx.faults.last != nil && ctx.faults.last.fired.Load(),
		UnprocessedDocs: ctx.faults.unprocessed.sorted(),
	}
	for _, r := range ctx.faults.quarantined {
		rep.Quarantined = append(rep.Quarantined, r)
	}
	ctx.faults.mu.Unlock()
	sort.Slice(rep.Quarantined, func(i, j int) bool { return rep.Quarantined[i].Doc < rep.Quarantined[j].Doc })
	if !rep.DeadlineExpired && len(rep.UnprocessedDocs) == 0 && len(rep.Quarantined) == 0 {
		return nil
	}
	return rep
}

// AttachDegraded returns t with the context's degradation report
// attached, or t itself when there is nothing to report. The table is
// shallow-copied: cached intermediates are shared and must never be
// mutated.
func (ctx *Context) AttachDegraded(t *compact.Table) *compact.Table {
	rep := ctx.DegradedReport()
	if rep == nil || t == nil {
		return t
	}
	t2 := *t
	t2.Degraded = rep
	return &t2
}

// QuarantinedDocs returns the sorted IDs of all currently quarantined
// documents (empty when none).
func (ctx *Context) QuarantinedDocs() []string {
	var ids []string
	ctx.faults.mu.Lock()
	for d := range ctx.faults.quarantined {
		ids = append(ids, d)
	}
	ctx.faults.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// quarantineDocs adds documents to the quarantine, recording one
// QuarantineRecord per newly barred document.
func (ctx *Context) quarantineDocs(op, cause string, docs docSet) {
	statAdd(&ctx.Stats.QuarantineEvents, 1)
	ctx.faults.mu.Lock()
	defer ctx.faults.mu.Unlock()
	if ctx.faults.quarantined == nil {
		ctx.faults.quarantined = map[string]compact.QuarantineRecord{}
	}
	had := len(ctx.faults.quarantined)
	for d := range docs {
		if _, ok := ctx.faults.quarantined[d]; !ok {
			ctx.faults.quarantined[d] = compact.QuarantineRecord{Doc: d, Op: op, Cause: cause}
		}
	}
	if len(ctx.faults.quarantined) > had {
		ctx.rebarLocked()
	}
}

// releaseQuarantined removes changed documents from the quarantine:
// an update or removal supersedes the content whose processing faulted.
// The mode changes with the barred set, so nothing evaluated under the
// old one remains reachable (stale tables keyed under it simply never
// match — a reuse loss, never an error).
func (ctx *Context) releaseQuarantined(changed docSet) {
	ctx.faults.mu.Lock()
	defer ctx.faults.mu.Unlock()
	had := len(ctx.faults.quarantined)
	maps.DeleteFunc(ctx.faults.quarantined, func(d string, _ compact.QuarantineRecord) bool { return changed[d] })
	if len(ctx.faults.quarantined) < had {
		ctx.rebarLocked()
	}
}

// rebarLocked makes the quarantined documents the current mode's barred
// set and the QuarantinedDocs gauge. Callers hold ctx.faults.mu.
func (ctx *Context) rebarLocked() {
	barred := docSet{}
	for d := range ctx.faults.quarantined {
		barred[d] = true
	}
	ctx.remode(func(m *evalMode) { m.barred = barred })
	atomic.StoreInt64(&ctx.Stats.QuarantinedDocs, int64(len(barred)))
}

// recoveredPanic marks an error produced by recovering a panic inside a
// guarded unit, so the retry policy can skip retries (a panic is not
// transient).
type recoveredPanic struct{ val any }

func (p recoveredPanic) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// guard runs one per-document unit of user code — a p-function
// valuation pass over a tuple, a feature constraint refinement, a
// procedure call — isolating its faults. A transient error is retried
// once (run must therefore be idempotent: compute into locals, commit
// only after guard reports success); a persistent error or a panic
// quarantines the documents feeding the involved cells of tp (nil
// involved = every cell), and the caller drops the unit and continues its
// pass. The Env's FaultHook, if set, is invoked first with the same
// documents so injected faults are handled exactly like faults in the
// user code itself. The documents are collected only then or after the
// unit failed, so a fault-free unit costs no attribution.
//
// Returns true when the unit's documents were quarantined (the caller
// skips the unit).
func (ctx *Context) guard(ev *EvalTrace, op string, tp compact.Tuple, involved []int, run func() error) (quarantined bool) {
	hook := ctx.Env.FaultHook
	var ids []string
	if hook != nil {
		ids = docSet{}.add(tp, involved).sorted()
	}
	ferr := attempt(hook, op, ids, run)
	if ferr == nil {
		return false
	}
	var rp recoveredPanic
	if !errors.As(ferr, &rp) {
		statAdd(&ctx.Stats.QuarantineRetries, 1)
		if ferr = attempt(hook, op, ids, run); ferr == nil {
			return false
		}
	}
	ctx.quarantineDocs(op, ferr.Error(), docSet{}.add(tp, involved))
	ev.quarantine(1)
	return true
}

// attempt runs a guarded unit once, the hook first, and returns its
// error or the panic it raised as a recoveredPanic.
func attempt(hook func(string, []string) error, op string, docs []string, run func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredPanic{val: r}
		}
	}()
	if hook != nil {
		if err := hook(op, docs); err != nil {
			return err
		}
	}
	return run()
}

// quarantineErr wraps the sentinel with the operator and count for error
// messages; errors.Is(err, ErrQuarantined) still matches.
func quarantineErr(op string, n int64) error {
	return fmt.Errorf("%s pass quarantined documents (%d units dropped): %w", op, n, ErrQuarantined)
}

// evalRetrying evaluates a node through the cache, restarting after
// quarantine: a pass that faulted returns ErrQuarantined (its output is
// never cached), the newly barred documents drop out at the scans, and
// the re-evaluation — under a mode that now names the survivor set —
// runs clean. The fixpoint terminates because every
// restart bars at least one more document.
func evalRetrying(ctx *Context, n Node) (*compact.Table, error) {
	t, err := Eval(ctx, n)
	for restarts := 0; err != nil && errors.Is(err, ErrQuarantined); restarts++ {
		if restarts >= maxQuarantineRestarts {
			return nil, fmt.Errorf("engine: evaluation kept faulting after %d quarantine restarts: %w", restarts, err)
		}
		statAdd(&ctx.Stats.EvalRestarts, 1)
		t, err = Eval(ctx, n)
	}
	return t, err
}
