package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"iflex/internal/compact"
)

// This file implements the engine's bounded worker pool. The tuple loop's
// chunks (tupleloop.go) and independent sibling subtrees run on spare pool
// slots; the calling goroutine always keeps working too, so progress never
// depends on slot availability and nested parallel regions cannot
// deadlock. Every construct merges results in input order, which makes
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

// parallelChunksSized splits [0, n) into up to workers() contiguous chunks
// and runs body on each, spawning goroutines only for the slots tryAcquire
// grants; the caller's goroutine runs the first chunk (and any chunk that
// found no free slot) itself. body must keep its results apart from other
// chunks' so the caller can merge them in chunk order. The returned error
// is the one a serial left-to-right run would have hit first: within a chunk
// body stops at its first error, and across chunks the lowest-indexed
// chunk's error wins. The fan-out is capped so every chunk covers at
// least minChunk items, which keeps cheap nodes serial instead of paying
// goroutine and pool-slot overhead for sub-microsecond chunks.
func (ctx *Context) parallelChunksSized(n, minChunk int, body func(start, end int) error) error {
	run := body
	if h := ctx.Env.FaultHook; h != nil {
		run = func(start, end int) error {
			if err := h("chunk", []string{"c" + strconv.Itoa(start)}); err != nil {
				return err
			}
			return body(start, end)
		}
	}
	w := ctx.workers()
	if w > n {
		w = n
	}
	if minChunk > 1 && w > 1 {
		if m := n / minChunk; m < w {
			w = m
			if w < 1 {
				w = 1
			}
		}
	}
	if w <= 1 {
		if n <= 0 {
			return nil
		}
		return run(0, n)
	}
	errs := make([]error, w)
	pans := make([]*workerPanic, w)
	var wg sync.WaitGroup
	// A chunk the coordinator runs itself may panic; the panic must not
	// reach the Eval caller while spawned workers still evaluate (holding
	// pool slots and in-flight cache entries), so wait on that path too.
	defer wg.Wait()
	chunk := func(i int) (start, end int) {
		return i * n / w, (i + 1) * n / w
	}
	for i := 1; i < w; i++ {
		if !ctx.tryAcquire() {
			start, end := chunk(i)
			errs[i] = run(start, end)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer ctx.release()
			defer forwardPanic(&pans[i])
			start, end := chunk(i)
			errs[i] = run(start, end)
		}(i)
	}
	start, end := chunk(0)
	errs[0] = run(start, end)
	wg.Wait()
	rethrow(pans)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// evalPair evaluates two sibling nodes through evalAll: concurrently when
// a pool slot is free, the left error winning on a double failure.
func evalPair(ctx *Context, left, right Node) (lt, rt *compact.Table, err error) {
	ts, err := evalAll(ctx, []Node{left, right})
	if err != nil {
		return nil, nil, err
	}
	return ts[0], ts[1], nil
}

// evalAll evaluates sibling nodes in order, running each on a spare pool
// slot when one is free. The first (lowest-index) error wins.
func evalAll(ctx *Context, nodes []Node) ([]*compact.Table, error) {
	out := make([]*compact.Table, len(nodes))
	errs := make([]error, len(nodes))
	pans := make([]*workerPanic, len(nodes))
	var wg sync.WaitGroup
	// Also when an inline evaluation panics: see parallelChunksSized.
	defer wg.Wait()
	for i, node := range nodes {
		if i < len(nodes)-1 && ctx.tryAcquire() {
			wg.Add(1)
			go func(i int, node Node) {
				defer wg.Done()
				defer ctx.release()
				defer forwardPanic(&pans[i])
				out[i], errs[i] = Eval(ctx, node)
			}(i, node)
			continue
		}
		out[i], errs[i] = Eval(ctx, node)
	}
	wg.Wait()
	rethrow(pans)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
