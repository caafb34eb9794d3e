package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"iflex/internal/compact"
)

// ErrQuarantined is the sentinel an operator pass returns (wrapped) when
// it quarantined documents: the pass's output is discarded and the
// evaluation is restarted over the surviving documents, so no table that
// ever saw a fault is cached or returned. Check with errors.Is.
var ErrQuarantined = errors.New("engine: documents quarantined during evaluation")

// maxQuarantineRestarts bounds the restart fixpoint; each restart
// quarantines at least one more document, so this is a safety net for a
// pathological corpus where a large fraction of documents fault.
const maxQuarantineRestarts = 100

// quarantineSet is the immutable current quarantine state, swapped
// atomically so the fault-free fast path is one nil check. suffix is the
// mode-marker component that keeps evaluations over different survivor
// sets from aliasing (Context.remode).
type quarantineSet struct {
	barred  map[string]bool
	records []compact.QuarantineRecord
	suffix  string
}

// quarantined returns the current quarantine set, or nil when no
// document has been quarantined.
func (ctx *Context) quarantined() *quarantineSet { return ctx.qstate.Load() }

// tupleBarred reports whether any document feeding the tuple is
// quarantined; scans drop such tuples, exactly like the subset filter.
func (q *quarantineSet) tupleBarred(tp compact.Tuple) bool {
	for _, cell := range tp.Cells {
		for _, a := range cell.Assigns {
			if q.barred[a.Span.Doc().ID()] {
				return true
			}
		}
	}
	return false
}

// QuarantinedDocs returns the sorted IDs of all currently quarantined
// documents (empty when none).
func (ctx *Context) QuarantinedDocs() []string {
	q := ctx.qstate.Load()
	if q == nil {
		return nil
	}
	ids := make([]string, 0, len(q.barred))
	for id := range q.barred {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// quarantineDocs adds documents to the quarantine, recording one
// QuarantineRecord per newly barred document. The set is copy-on-write:
// readers hold the old pointer safely while the new one (with a rebuilt
// suffix, and the mode it names) is swapped in.
func (ctx *Context) quarantineDocs(op, cause string, docs []string) {
	statAdd(&ctx.Stats.QuarantineEvents, 1)
	ctx.qmu.Lock()
	defer ctx.qmu.Unlock()
	old := ctx.qstate.Load()
	ns := &quarantineSet{barred: map[string]bool{}}
	if old != nil {
		for id := range old.barred {
			ns.barred[id] = true
		}
		ns.records = append(ns.records, old.records...)
	}
	added := false
	for _, d := range docs {
		if ns.barred[d] {
			continue
		}
		ns.barred[d] = true
		ns.records = append(ns.records, compact.QuarantineRecord{Doc: d, Op: op, Cause: cause})
		added = true
	}
	if !added {
		return
	}
	ids := make([]string, 0, len(ns.barred))
	for id := range ns.barred {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ns.suffix = "|quarantine:" + strings.Join(ids, ",")
	ctx.qstate.Store(ns)
	ctx.remode()
	atomic.StoreInt64(&ctx.Stats.QuarantinedDocs, int64(len(ns.barred)))
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
// quarantines the documents docsFn names, and the caller drops the unit
// and continues its pass. The Env's FaultHook, if set, is invoked first
// with the same documents so injected faults are handled exactly like
// faults in the user code itself. docsFn runs only then or after the unit
// failed, so a fault-free unit costs no attribution.
//
// Returns true when the unit's documents were quarantined (the caller
// skips the unit).
func (ctx *Context) guard(ev *EvalTrace, op string, docsFn func() []string, run func() error) (quarantined bool) {
	hook := ctx.Env.FaultHook
	var docs []string
	if hook != nil {
		docs = docsFn()
	}
	ferr := attempt(hook, op, docs, run)
	if ferr == nil {
		return false
	}
	var rp recoveredPanic
	if !errors.As(ferr, &rp) {
		statAdd(&ctx.Stats.QuarantineRetries, 1)
		if ferr = attempt(hook, op, docs, run); ferr == nil {
			return false
		}
	}
	if hook == nil {
		docs = docsFn()
	}
	ctx.quarantineDocs(op, ferr.Error(), docs)
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

// tupleDocs returns the sorted, deduplicated IDs of the documents
// feeding the given cells of a tuple (nil involved = all cells) — the
// quarantine attribution set for a fault while processing the tuple.
func tupleDocs(tp compact.Tuple, involved []int) []string {
	seen := map[string]bool{}
	add := func(cell compact.Cell) {
		for _, a := range cell.Assigns {
			seen[a.Span.Doc().ID()] = true
		}
	}
	if involved == nil {
		for _, cell := range tp.Cells {
			add(cell)
		}
	} else {
		for _, ci := range involved {
			add(tp.Cells[ci])
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
