package engine

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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
// atomically so the fault-free fast path is one nil check: the barred
// documents and one record per barred document.
type quarantineSet struct {
	barred  docSet
	records []compact.QuarantineRecord
}

// quarantined returns the current quarantine set, or nil when no
// document has been quarantined.
func (ctx *Context) quarantined() *quarantineSet { return ctx.qstate.Load() }

// QuarantinedDocs returns the sorted IDs of all currently quarantined
// documents (empty when none).
func (ctx *Context) QuarantinedDocs() []string {
	if q := ctx.quarantined(); q != nil {
		return q.barred.sorted()
	}
	return nil
}

// quarantineDocs adds documents to the quarantine, recording one
// QuarantineRecord per newly barred document.
func (ctx *Context) quarantineDocs(op, cause string, docs docSet) {
	statAdd(&ctx.Stats.QuarantineEvents, 1)
	ctx.qmu.Lock()
	defer ctx.qmu.Unlock()
	ns := &quarantineSet{barred: docSet{}}
	if old := ctx.quarantined(); old != nil {
		maps.Copy(ns.barred, old.barred)
		ns.records = slices.Clone(old.records)
	}
	had := len(ns.records)
	for d := range docs {
		if !ns.barred[d] {
			ns.barred[d] = true
			ns.records = append(ns.records, compact.QuarantineRecord{Doc: d, Op: op, Cause: cause})
		}
	}
	if len(ns.records) > had {
		ctx.swapQuarantine(ns)
	}
}

// swapQuarantine installs ns (empty: nothing barred) as the
// quarantine state, with the mode it implies and the QuarantinedDocs
// gauge. The set is copy-on-write: readers hold the old pointer safely.
// Callers hold qmu.
func (ctx *Context) swapQuarantine(ns *quarantineSet) {
	if len(ns.barred) == 0 {
		ctx.qstate.Store(nil)
	} else {
		ctx.qstate.Store(ns)
	}
	ctx.remode(func(m *evalMode) { m.barred = ns.barred })
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
