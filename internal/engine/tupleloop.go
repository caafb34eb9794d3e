package engine

import (
	"fmt"
	"slices"
	"sync"

	"iflex/internal/compact"
)

// This file is the one per-input-tuple loop of the engine. Section 4 of the
// paper defines every operator over compact tables tuple by tuple, and the
// reuse of §5.2 is per tuple too; what differs between operators is the
// decision and the rows it stands for, never the protocol around them. The
// loop owns that protocol — fan-out over the worker pool, the best-effort
// cut with its unprocessed-document report, the delta-prior lookup, the
// quarantine, fallback and reused/recomputed accounting, output order, and
// the memo an evaluation leaves for its successor — and an operator is a
// tupleOp: what it reads, and a decide/emit pair.

// outcome is what one operator family decides, and with delta evaluation
// on memoises, per input tuple: a small type of its own (DESIGN.md §11).
// limitFallbacks is how many valuation-limit fallbacks deciding it charged;
// replays recharge them, so LimitFallbacks stays a full evaluation's.
type outcome interface{ limitFallbacks() int32 }

// decideFn decides one input tuple. old is the outcome the predecessor
// memoised for a tuple structurally identical on the operator's dependency
// columns, nil when there is none; o is the outcome this evaluation
// memoises in turn (a pure replay returns *old). reused says o took no
// fresh work, quarantined that a guarded unit of the tuple had its documents
// quarantined (the pass then fails with ErrQuarantined and o is ignored).
// decide must be a pure function of the dependency cells, the pinned right
// table and old; counters go to the chunk's statBatch.
type decideFn[O outcome] func(tp compact.Tuple, old *O) (o O, reused, quarantined bool, err error)

// tupleOp describes one operator to tupleLoop.
type tupleOp[O outcome] struct {
	// site is the guard site decide runs user code under: the name a pass
	// that quarantined documents fails with. Empty for operators that guard
	// nothing.
	site string
	// cols are the input columns decide reads, the memo key; empty when it
	// reads none (every tuple then has the first one's outcome). Nil is for
	// an operator whose tuples are not delta work (selections, ×,
	// procedures): nothing is looked up, kept or counted as reused or
	// recomputed. ⋈~ names its other input and the columns of it decide
	// reads: the memo is pinned to both (evalAux).
	cols      []int
	right     *compact.Table
	rightCols []int
	// stages is the length of a constraint run, 0 for every other operator:
	// a memo left by a run of at most as many stages is a usable prior, and
	// decide resumes behind the stages an outcome already covers.
	stages int
	// minChunk is the least number of tuples worth a pool slot (parallel.go);
	// 0 runs one serial chunk on the caller's goroutine.
	minChunk int
	// uncut lets a loop of pure, cheap engine code run to completion over
	// whatever a best-effort cut left of its input.
	uncut bool
	// open returns the decide of one chunk, closed over whatever scratch the
	// chunk's worker reuses from tuple to tuple; batch is the chunk's counter
	// shard. decide may be called from one goroutine only, open from many.
	open func(batch *statBatch) decideFn[O]
	// emit appends the rows o stands for, built from the current tuple (and
	// the current right table), to dst, in input order within a chunk.
	emit func(dst []compact.Tuple, tp compact.Tuple, o *O) []compact.Tuple
	// count, set by ⋈~ and ×, is the number of rows emit appends for o: every
	// tuple is decided before any is emitted, into one array of the exact
	// total. A loop without it emits as it decides, at most one row per tuple
	// into a chunk's window (σ, runs) or any number in one serial chunk (ψ).
	count func(o *O) int
}

// tupleLoop runs op over every tuple of in and returns the emitted rows, as
// a table over cols, in input order, identical at any worker count. With delta evaluation on
// (dx != nil) the per-index outcome array it fills is the memo the
// evaluation leaves behind (dx.aux): outcomes are written once, in place,
// and only the fingerprints and their index are added on top. A prior
// holding another type's outcomes is no prior. A best-effort cut reports
// the documents of the tuples not reached and abandons the memo (it would
// have holes); a quarantine discards the pass (ErrQuarantined).
func tupleLoop[O outcome](ctx *Context, ev *EvalTrace, dx *deltaState, in *compact.Table, cols []string, op tupleOp[O]) (*compact.Table, error) {
	if ev == nil {
		ev = new(EvalTrace) // attribution to discard
	}
	n := len(in.Tuples)
	var prior, aux *evalAux
	var outs, priorOuts []O
	if dx != nil && op.cols != nil {
		aux = &evalAux{right: op.right, cols: op.cols, stages: op.stages, in: in.Tuples, fps: make([]uint64, n)}
		if op.right != nil {
			aux.rightDep = op.right.ColsFingerprint(op.rightCols)
		}
		if prior = dx.priorFor(aux); prior != nil {
			if priorOuts, _ = prior.outs.([]O); priorOuts == nil {
				prior = nil
			}
		}
	}
	if aux != nil || op.count != nil {
		outs = make([]O, n)
	}
	// Chunks finish in any order and hand in their parts under mu: the tuples
	// decided (a cut ends them early) and their rows, emitted or counted.
	type part struct {
		start, end, count int
		rows              []compact.Tuple
	}
	var slots []compact.Tuple
	if op.count == nil {
		slots = make([]compact.Tuple, n)
	}
	var mu sync.Mutex
	var parts []part
	var nq, total int
	cut := false
	body := func(start, end int) error {
		var batch statBatch
		defer batch.flush(ctx, ev)
		decide := op.open(&batch)
		p := part{start: start, end: end}
		if slots != nil {
			p.rows = slots[start:start:end]
		}
		quarantined := 0
		var scratch O // the current outcome of a chunk that keeps none
		for i := start; i < end; i++ {
			if !op.uncut && ctx.Cancelled() {
				ctx.noteUnprocessed(in.Tuples[i:end])
				p.end = i
				break
			}
			tp := in.Tuples[i]
			// The outcome is decided into its slot of outs: with delta on the
			// array is the memo's storage, never a copy of it.
			o, old := &scratch, (*O)(nil)
			if outs != nil {
				o = &outs[i]
			}
			if aux != nil {
				aux.fps[i] = tp.CellsFingerprint(op.cols)
				if j := prior.lookup(aux.fps[i], tp); j >= 0 {
					old = &priorOuts[j]
				}
			}
			var hit, q bool
			var err error
			*o, hit, q, err = decide(tp, old)
			if op.cols != nil {
				if hit {
					batch.TuplesReused++
				} else {
					batch.TuplesRecomputed++
				}
			}
			if err != nil {
				return err
			}
			// Replayed outcomes recharge the valuation-limit fallbacks they
			// stand for, so LimitFallbacks equals a full evaluation's.
			batch.LimitFallbacks += int64((*o).limitFallbacks())
			switch {
			case q:
				quarantined++
			case op.count != nil:
				p.count += op.count(o)
			default:
				p.rows = op.emit(p.rows, tp, o)
			}
		}
		if op.minChunk > 0 && len(p.rows) > end-start {
			panic(fmt.Sprintf("engine: %d rows emitted for a window of %d", len(p.rows), end-start))
		}
		mu.Lock()
		parts = append(parts, p)
		nq, total = nq+quarantined, total+p.count
		cut = cut || p.end < end
		mu.Unlock()
		return nil
	}
	var err error
	if op.minChunk == 0 {
		err = body(0, n)
	} else {
		err = ctx.parallelChunksSized(n, op.minChunk, body)
	}
	if err != nil {
		return nil, err
	}
	if nq > 0 {
		return nil, quarantineErr(op.site, int64(nq))
	}
	if op.stages > 0 {
		covered := -1
		if prior != nil {
			covered = prior.stages
		}
		ev.resumedFrom = covered
	}
	if aux != nil && !cut {
		aux.outs = outs
		aux.buildIndex()
		aux.bytes = memoBytes(outs, len(aux.slots))
		dx.aux = aux
	}
	out := compact.NewTable(cols...)
	slices.SortFunc(parts, func(a, b part) int { return a.start - b.start })
	if op.count != nil {
		// Each chunk emits into its range of one array of the exact total.
		out.Tuples = make([]compact.Tuple, total)
		_ = ctx.ForEach(len(parts), func(k int) error { // emitting cannot fail
			p, off := parts[k], 0
			for _, q := range parts[:k] {
				off += q.count
			}
			dst := out.Tuples[off : off : off+p.count]
			for i := p.start; i < p.end; i++ {
				dst = op.emit(dst, in.Tuples[i], &outs[i])
			}
			if len(dst) != p.count {
				panic(fmt.Sprintf("engine: %d rows emitted for a count of %d", len(dst), p.count))
			}
			return nil
		})
		return out, nil
	}
	if len(parts) == 1 {
		out.Tuples = parts[0].rows // ψ or a procedure may outgrow its window
		return out, nil
	}
	// Compact the windows in place, in chunk order; the slots behind the
	// last row are cleared so they hold no rows alive.
	k := 0
	for _, p := range parts {
		k += copy(slots[k:], p.rows)
	}
	clear(slots[k:])
	out.Tuples = slots[:k]
	return out, nil
}
