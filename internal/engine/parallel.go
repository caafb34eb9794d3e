package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"iflex/internal/compact"
)

// This file implements the engine's bounded worker pool and its one
// fan-out, ForEach: the tuple loop's chunks (tupleloop.go), independent
// sibling subtrees and the assistant's simulations run on spare pool
// slots; the calling goroutine always keeps working too, so progress never
// depends on slot availability and nested parallel regions cannot
// deadlock. Every caller merges results in index order, which makes
// evaluation byte-identical to a serial run regardless of the worker
// count.

// workers resolves the context's worker budget: Workers when positive,
// otherwise every available CPU.
func (ctx *Context) workers() int {
	if ctx.Workers > 0 {
		return ctx.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// tryAcquire reserves one pool slot beyond the caller's own goroutine,
// without blocking. Callers that fail to acquire run the work inline.
// Outcomes are counted in Stats (PoolSlotsGranted / PoolSlotsDenied) so
// the bench harness can report pool utilization; a denial is not a
// stall — it means the requesting goroutine did the work itself.
func (ctx *Context) tryAcquire() bool {
	limit := int64(ctx.workers() - 1)
	for {
		cur := ctx.extraWorkers.Load()
		if cur >= limit {
			statAdd(&ctx.Stats.PoolSlotsDenied, 1)
			return false
		}
		if ctx.extraWorkers.CompareAndSwap(cur, cur+1) {
			statAdd(&ctx.Stats.PoolSlotsGranted, 1)
			statMax(&ctx.Stats.PoolMaxExtra, cur+1)
			return true
		}
	}
}

// release returns a slot taken by tryAcquire.
func (ctx *Context) release() { ctx.extraWorkers.Add(-1) }

// workerPanic carries a panic recovered on a pool worker goroutine back
// to the coordinating goroutine, which re-panics with it; without this
// forwarding a panic inside a spawned worker would crash the process
// instead of propagating to the Eval caller like a serial panic does.
// The worker's stack is preserved because the re-panic happens on a
// different goroutine.
type workerPanic struct {
	val   any
	stack string
}

func (p workerPanic) String() string {
	return fmt.Sprintf("%v (recovered on a pool worker)\nworker stack:\n%s", p.val, p.stack)
}

// forward records a recovered panic value into *slot.
func forwardPanic(slot **workerPanic) {
	if r := recover(); r != nil {
		*slot = &workerPanic{val: r, stack: string(debug.Stack())}
	}
}

// rethrow re-panics the first recorded worker panic, if any.
func rethrow(pans []*workerPanic) {
	for _, p := range pans {
		if p != nil {
			panic(*p)
		}
	}
}

// Minimum items per chunk for the fan-out of each operator family
// (tupleOp.minChunk), derived from their measured per-item cost:
// similarity-join probes run a blocking lookup plus a token odometer per
// item (expensive), selections a factored predicate (medium), cross
// products and constraint refinement sit in between. Nodes smaller than
// one chunk run serially and skip the pool bookkeeping entirely — the fix
// for pool_slots_denied ≈ granted on tiny nodes.
const (
	minChunkProbe      = 4
	minChunkFilter     = 16
	minChunkCross      = 16
	minChunkConstraint = 8
)

// ForEach runs body(i) for every i in [0, n) on the caller's goroutine
// and on every pool slot tryAcquire grants it, up to min(n, workers())-1
// of them: each claims the next index from one shared counter until none
// is left. It is the engine's one fan-out (tuple chunks, sibling subtrees
// and the assistant's simulations all go through it), so Workers bounds
// every goroutine a context evaluates on. Every index runs, and the
// returned error is the lowest-indexed one, as a serial run's first error
// would be. A panic in a body stops the claiming of further indices and
// reaches the caller once every claimed body has returned, however many
// pool slots ran them. body must keep its results apart from other
// indices' so the caller can merge them in index order.
func (ctx *Context) ForEach(n int, body func(i int) error) error {
	if n <= 1 {
		if n == 1 {
			return body(0)
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	claim := func() {
		// A panicking body ends every goroutine's claims; after a normal
		// return every index is claimed already, so the store is a no-op.
		defer next.Store(int64(n))
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = body(i)
		}
	}
	pans := make([]*workerPanic, min(n, ctx.workers())-1)
	var wg sync.WaitGroup
	// The caller's own body may panic; the panic must not reach the Eval
	// caller while helpers still evaluate (holding pool slots and in-flight
	// cache entries), so wait on that path too.
	defer wg.Wait()
	for h := range pans {
		if !ctx.tryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ctx.release()
			defer forwardPanic(&pans[h])
			claim()
		}()
	}
	claim()
	wg.Wait()
	rethrow(pans)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelChunksSized splits [0, n) into up to workers() contiguous chunks
// and runs body on each through ForEach. The returned error is the one a
// serial left-to-right run would have hit first: within a chunk body
// stops at its first error, and across chunks the lowest-indexed chunk's
// error wins. The fan-out is capped so every chunk covers at least
// minChunk items, which keeps cheap nodes serial instead of paying
// goroutine and pool-slot overhead for sub-microsecond chunks.
func (ctx *Context) parallelChunksSized(n, minChunk int, body func(start, end int) error) error {
	if n <= 0 {
		return nil
	}
	w := min(ctx.workers(), n)
	if minChunk > 1 {
		w = max(1, min(w, n/minChunk))
	}
	return ctx.ForEach(w, func(i int) error {
		start, end := i*n/w, (i+1)*n/w
		if h := ctx.Env.FaultHook; h != nil {
			if err := h("chunk", []string{"c" + strconv.Itoa(start)}); err != nil {
				return err
			}
		}
		return body(start, end)
	})
}

// evalAll evaluates sibling nodes through ForEach. The first
// (lowest-index) error wins.
func evalAll(ctx *Context, nodes []Node) ([]*compact.Table, error) {
	out := make([]*compact.Table, len(nodes))
	if err := ctx.ForEach(len(nodes), func(i int) (err error) {
		out[i], err = Eval(ctx, nodes[i])
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}
