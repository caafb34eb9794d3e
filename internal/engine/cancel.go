package engine

import (
	"context"
	"sort"
	"sync/atomic"

	"iflex/internal/compact"
)

// cancelState is one bound cancellation source. fired memoises the first
// observation of the done channel so later checkpoints skip the select.
type cancelState struct {
	c context.Context
	// fired flips to true the first time a checkpoint observes c.Done().
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
	ctx.degMu.Lock()
	ctx.degExpired = false
	ctx.degUnprocessed = nil
	ctx.degMu.Unlock()
	ctx.cancelSt.Store(&cancelState{c: c})
}

// Unbind detaches the bound cancellation source. The degradation state
// collected while bound remains readable through DegradedReport until
// the next BindCancel.
func (ctx *Context) Unbind() { ctx.cancelSt.Store(nil) }

// Cancelled reports whether a bound cancellation has fired (never, with
// none bound), marking the report expired as every engine checkpoint does.
func (ctx *Context) Cancelled() bool { return ctx.cutCheck() }

// observe checks the bound context without blocking, memoising a fired
// cancellation.
func (cs *cancelState) observe() bool {
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

// cutCheck is the engine's cancellation checkpoint. With nothing bound
// (or the source not yet fired) it is false. A fired cancellation returns
// true and marks the degradation report expired — the caller stops its
// loop, records what it skipped via noteUnprocessed, and returns its
// partial output.
func (ctx *Context) cutCheck() bool {
	cs := ctx.cancelSt.Load()
	if cs == nil || !cs.observe() {
		return false
	}
	ctx.degMu.Lock()
	ctx.degExpired = true
	ctx.degMu.Unlock()
	return true
}

// cancelFired reports whether a bound cancellation has been observed;
// Eval uses it to keep results computed after the cut out of the reuse
// cache (a cut evaluation may be partial).
func (ctx *Context) cancelFired() bool {
	cs := ctx.cancelSt.Load()
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
	ctx.degMu.Lock()
	defer ctx.degMu.Unlock()
	if ctx.degUnprocessed == nil {
		ctx.degUnprocessed = docSet{}
	}
	for _, tp := range tuples {
		ctx.degUnprocessed.add(tp, nil)
	}
}

// DegradedReport assembles the degradation report for the work done
// since the last BindCancel: the deadline/cancel cut state, the
// documents left unprocessed by cuts, and the documents quarantined by
// per-document fault handling. It returns nil when the evaluation was
// complete and fault-free, so callers can attach it only when there is
// something to say.
func (ctx *Context) DegradedReport() *compact.Degraded {
	rep := &compact.Degraded{}
	ctx.degMu.Lock()
	rep.DeadlineExpired = ctx.degExpired
	rep.UnprocessedDocs = ctx.degUnprocessed.sorted()
	ctx.degMu.Unlock()
	if q := ctx.qstate.Load(); q != nil {
		rep.Quarantined = append(rep.Quarantined, q.records...)
		sort.Slice(rep.Quarantined, func(i, j int) bool { return rep.Quarantined[i].Doc < rep.Quarantined[j].Doc })
	}
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
