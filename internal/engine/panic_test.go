package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iflex/internal/alog"
	"iflex/internal/compact"
)

// panicNode panics on its first evaluation and succeeds afterwards; the
// channels let the test interleave a concurrent waiter with the panic.
type panicNode struct {
	ident
	calls   atomic.Int32
	started chan struct{}
	release chan struct{}
}

func (n *panicNode) Columns() []string { return []string{"x"} }

func (n *panicNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState) (*compact.Table, error) {
	if n.calls.Add(1) == 1 {
		close(n.started)
		<-n.release
		// Give the concurrent Eval time to park on the in-flight entry's
		// done channel before the panic tears the evaluation down.
		time.Sleep(50 * time.Millisecond)
		panic("boom")
	}
	return compact.NewTable("x"), nil
}

// TestEvalPanicUnblocksWaiters is the regression test for the in-flight
// leak: a panicking node evaluation must unblock concurrent waiters with
// an error, re-panic in the evaluating goroutine, and leave the key
// retryable rather than poisoned.
func TestEvalPanicUnblocksWaiters(t *testing.T) {
	ctx := NewContext(NewEnv())
	n := &panicNode{ident: ident{id: newNodeID(), head: "panicNode"}, started: make(chan struct{}), release: make(chan struct{})}

	evalPanic := make(chan any, 1)
	go func() {
		defer func() { evalPanic <- recover() }()
		Eval(ctx, n)
	}()
	<-n.started

	waiter := make(chan error, 1)
	go func() {
		_, err := Eval(ctx, n)
		waiter <- err
	}()
	// Let the waiter reach the in-flight wait, then release the panic.
	time.Sleep(10 * time.Millisecond)
	close(n.release)

	select {
	case r := <-evalPanic:
		if r == nil {
			t.Fatal("evaluating goroutine did not re-panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evaluating goroutine never finished")
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("waiter got a nil error from a panicked evaluation")
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Errorf("waiter error %q does not mention the panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked: in-flight entry leaked on panic")
	}

	// The key must not be poisoned: a fresh request re-evaluates.
	tbl, err := Eval(ctx, n)
	if err != nil || tbl == nil {
		t.Fatalf("retry after panic: table=%v err=%v", tbl, err)
	}
	ctx.mu.Lock()
	leaked := len(ctx.inflight)
	ctx.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d in-flight entries leaked", leaked)
	}
}

// TestChaosWorkerPanicForwarded is the regression test for panics inside
// pool worker goroutines: before forwarding, a panic raised while a
// spawned worker processed its chunk crashed the whole process instead
// of propagating to the Eval caller like a serial panic. The hook panics
// once at the start of a non-caller chunk, which is outside any guarded
// unit, so nothing quarantines it.
func TestChaosWorkerPanicForwarded(t *testing.T) {
	env := chaosEnv(18, 6, nil)
	var fired atomic.Value
	env.FaultHook = func(site string, docs []string) error {
		if site == "chunk" && docs[0] != "c0" && fired.CompareAndSwap(nil, docs[0]) {
			panic("worker chunk fault for " + docs[0])
		}
		return nil
	}
	prog := alog.MustParse(figure2Src)
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.Workers = 8

	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, _ = plan.Execute(ctx)
		return nil
	}()
	if recovered == nil {
		t.Fatal("panic in a worker chunk did not propagate to the caller")
	}
	msg := fmt.Sprint(recovered)
	if key, _ := fired.Load().(string); !strings.Contains(msg, "worker chunk fault for "+key) {
		t.Errorf("recovered %q does not name the original panic", msg)
	}
	ctx.mu.Lock()
	leaked := len(ctx.inflight)
	ctx.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d in-flight entries leaked after the worker panic", leaked)
	}

	// A panic for one document inside a guarded unit of a worker chunk
	// must not panic: the document is isolated and the run completes.
	env.FaultHook = func(site string, docs []string) error {
		if site != "feature" {
			return nil
		}
		for _, d := range docs {
			if d == "h12" {
				panic("worker chunk fault for " + d)
			}
		}
		return nil
	}
	qctx := NewContext(env)
	qctx.Workers = 8
	if _, err := plan.Execute(qctx); err != nil {
		t.Fatalf("quarantine run failed: %v", err)
	}
	got := qctx.QuarantinedDocs()
	if len(got) != 1 || got[0] != "h12" {
		t.Errorf("quarantined %v, want exactly [h12]", got)
	}
}

// hookNode runs fn and returns an empty table.
type hookNode struct {
	ident
	fn func()
}

func (n *hookNode) Columns() []string { return []string{"x"} }
func (n *hookNode) eval(*Context, *EvalTrace, *deltaState) (*compact.Table, error) {
	n.fn()
	return compact.NewTable("x"), nil
}

// TestCoordinatorPanicWaitsForWorkers is the regression test for the
// flake in TestChaosWorkerPanicForwarded: when the unit that panics runs
// on the coordinating goroutine itself (its own chunk, or one no pool
// slot was free for), the three fan-out constructs used to unwind past
// workers still running, so the Eval caller saw the panic while in-flight
// entries and pool slots were still held. The worker is held until the
// coordinator has started to panic; when the panic arrives, the worker
// must have finished.
func TestCoordinatorPanicWaitsForWorkers(t *testing.T) {
	type rig struct {
		started, panicking, release chan struct{}
		workerDone                  atomic.Bool
	}
	worker := func(r *rig) {
		close(r.started)
		<-r.release
		r.workerDone.Store(true)
	}
	coordinator := func(r *rig) {
		<-r.started
		close(r.panicking)
		panic("coordinator chunk fault")
	}
	cases := []struct {
		name string
		run  func(ctx *Context, r *rig)
	}{
		{"parallelChunksSized", func(ctx *Context, r *rig) {
			ctx.Env.FaultHook = func(site string, docs []string) error {
				if docs[0] == "c0" {
					coordinator(r)
				}
				worker(r)
				return nil
			}
			_ = ctx.parallelChunksSized(2, 1, func(start, end int) error { return nil })
		}},
		{"evalPair", func(ctx *Context, r *rig) {
			left := &hookNode{ident: ident{id: newNodeID(), head: "hook-left"}, fn: func() { coordinator(r) }}
			right := &hookNode{ident: ident{id: newNodeID(), head: "hook-right"}, fn: func() { worker(r) }}
			_, _, _ = evalPair(ctx, left, right)
		}},
		{"evalAll", func(ctx *Context, r *rig) {
			first := &hookNode{ident: ident{id: newNodeID(), head: "hook-first"}, fn: func() { worker(r) }}
			last := &hookNode{ident: ident{id: newNodeID(), head: "hook-last"}, fn: func() { coordinator(r) }}
			_, _ = evalAll(ctx, []Node{first, last})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := NewContext(NewEnv())
			ctx.Workers = 2
			r := &rig{started: make(chan struct{}), panicking: make(chan struct{}), release: make(chan struct{})}
			type outcome struct {
				recovered  any
				workerDone bool
				inflight   int
				slots      int64
			}
			done := make(chan outcome, 1)
			go func() {
				defer func() {
					o := outcome{recovered: recover(), workerDone: r.workerDone.Load(), slots: ctx.extraWorkers.Load()}
					ctx.mu.Lock()
					o.inflight = len(ctx.inflight)
					ctx.mu.Unlock()
					done <- o
				}()
				c.run(ctx, r)
			}()
			<-r.panicking
			close(r.release)
			o := <-done
			if o.recovered == nil || !strings.Contains(fmt.Sprint(o.recovered), "coordinator chunk fault") {
				t.Fatalf("recovered %v, want the coordinator's panic", o.recovered)
			}
			if !o.workerDone || o.inflight != 0 || o.slots != 0 {
				t.Errorf("panic reached the caller with the worker still running: finished=%v, %d in-flight entries, %d pool slots held",
					o.workerDone, o.inflight, o.slots)
			}
		})
	}
}
