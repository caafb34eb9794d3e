package engine

import (
	"slices"
	"sync/atomic"

	"iflex/internal/compact"
)

// This file implements incremental (delta) evaluation across plan
// versions — the engine-level half of the paper's §5 reuse story. The
// per-node cache already reuses subtrees a refinement left alone: they are
// the same nodes. Delta evaluation goes one level further: when a
// refinement changes a subtree, the ancestors above it are new nodes and
// are evaluated, but each delta-capable operator memoises its
// per-input-tuple outcomes, so the evaluation recomputes only the tuples
// the refinement actually touched and replays the rest. See DESIGN.md §11
// for the per-operator rules.
//
// The moving parts:
//
//   - RegisterDelta declares "plan B succeeds plan A"; a lockstep walk
//     maps each new node of B to its predecessor in A.
//   - Eval, on a cache miss of a mapped node, attaches the predecessor's
//     per-tuple memo (evalAux) to the evaluation as its delta prior.
//   - Operators consult the prior per input tuple (fingerprint + exact
//     structural check) and rebuild a fresh memo for the next version.

// joinMatch is one memoised join decision: right-tuple index, whether
// every valuation of the pair satisfied the predicate, and the filtered
// join-cell replacements (simjoin only; keys 0 = left cell, 1 = right
// cell). The output row is rebuilt from the *current* left and right
// tuples on replay, so a memo stays valid when columns the join never
// reads were refined in between.
type joinMatch struct {
	j    int
	sure bool
	repl map[int]compact.Cell
}

// deltaOut is the memoised outcome of one operator for one input tuple.
// Exactly one of the payload fields is meaningful per operator family:
// cell, stages and stageSum for the constraint operator (the attribute cell
// after the whole run, nil = the tuple was dropped; how many stages it
// survived; the summed sizes of its cell after each of them — what a longer
// run resuming from this memo needs to total the stage tables it never
// builds, see SumAssignments), filt for selections, sim for binary
// per-left-tuple joins, ann for the annotation operator's per-tuple key
// contribution.
// Every payload is expressed in terms of the cells the operator actually
// reads, never the whole tuple — replay rebuilds the output from the
// current input tuple, which is what lets a memo survive refinements of
// unrelated columns. fallbacks records how many valuation-limit fallbacks
// the computation charged, replayed on reuse so LimitFallbacks totals
// stay identical to a full re-evaluation.
type deltaOut struct {
	cell      *compact.Cell
	filt      *filterOutcome
	sim       []joinMatch
	ann       *annContrib
	fallbacks int32
	stages    int32
	stageSum  int32
}

// deltaPair is one memo entry: the input tuple (kept for exact structural
// verification of fingerprint matches) and its outcome.
type deltaPair struct {
	in  compact.Tuple
	out deltaOut
}

// evalAux is the per-tuple memo one evaluation leaves behind for its
// successor. cols narrows the memo key to the input columns the operator
// reads (nil = the whole tuple including the maybe flag, for operators
// whose dependency set is unknown). For binary operators the other input
// is pinned two ways: right by pointer (the node cache guarantees pointer
// identity when the right subtree's signature is unchanged), and rightDep
// by a content fingerprint of the right table's dependency columns, which
// keeps memos transferable when the right subtree was re-evaluated but
// its join-relevant columns came out identical. stages is the number of
// stages of the constraint run that left the memo (0 for every other
// operator): a longer run replays that many and computes the rest.
// memBytes is the cache accounting estimate.
type evalAux struct {
	right    *compact.Table
	rightDep uint64
	cols     []int
	stages   int
	memo     map[uint64][]deltaPair
}

// fpOf returns the memo key for one input tuple under this memo's
// dependency narrowing.
func (a *evalAux) fpOf(tp compact.Tuple) uint64 {
	if a.cols == nil {
		return tp.Fingerprint()
	}
	return tp.CellsFingerprint(a.cols)
}

// lookup finds the memoised outcome for an input tuple that is
// structurally identical on the memo's dependency columns. The
// fingerprint narrows to a bucket; the structural check makes hash
// collisions harmless.
func (a *evalAux) lookup(h uint64, tp compact.Tuple) (deltaOut, bool) {
	if a == nil {
		return deltaOut{}, false
	}
	for _, p := range a.memo[h] {
		if a.cols == nil {
			if p.in.StructuralEq(tp) {
				return p.out, true
			}
		} else if p.in.CellsStructuralEq(tp, a.cols) {
			return p.out, true
		}
	}
	return deltaOut{}, false
}

// memBytes approximates the memo's resident size for cache accounting.
func (a *evalAux) memBytes() int64 {
	if a == nil {
		return 0
	}
	var b int64
	for _, ps := range a.memo {
		b += 48 // bucket overhead
		for _, p := range ps {
			b += 104 // the pair: input tuple header and deltaOut
			if p.out.cell != nil {
				b += 32 + assignmentEstimate*int64(len(p.out.cell.Assigns))
			}
			if p.out.filt != nil {
				b += 32 + 64*int64(len(p.out.filt.repl))
			}
			for _, m := range p.out.sim {
				b += 32 + 64*int64(len(m.repl))
			}
			if p.out.ann != nil {
				b += 64 + 32*int64(len(p.out.ann.keys))
			}
		}
	}
	return b
}

// assignmentEstimate mirrors compact's per-assignment size estimate for
// memoised refined cells.
const assignmentEstimate = 32

// deltaState threads delta bookkeeping through one Eval call. It is nil
// when delta evaluation is off (operators then skip all delta work); with
// delta on, Eval allocates one per evaluation and attaches the
// predecessor's memo as prior when RegisterDelta mapped the node.
type deltaState struct {
	prior *evalAux
	aux   *evalAux
	fps   []uint64
	// corpus marks a prior displaced by ApplyCorpusDelta rather than one
	// linked across plan versions: the prior's right table (for binary
	// operators) may have been rebuilt by the same corpus re-evaluation,
	// so prep's pointer/fingerprint pinning will reject it — the
	// similarity join reconciles the two right tables instead
	// (corpusSimPrior).
	corpus bool
	// reused counts tuples replayed from the prior during this evaluation,
	// for per-operator trace attribution (the deterministic Stats totals
	// are counted through statBatch instead).
	reused atomic.Int64
}

// prep arms the state for one operator pass over in: it allocates the
// memo this evaluation will leave behind and returns the usable prior
// plus the fingerprint slots the operator loop fills per input index.
// cols is the operator's input-column dependency set (nil = whole-tuple
// semantics); for binary operators, right is the other input and rightDep
// the content fingerprint of its dependency columns. The prior is only
// handed out when its narrowing matches and — for binary operators — the
// right input is either the pointer-identical table the prior was built
// against or one whose dependency columns fingerprint identically. A nil
// receiver (delta off) returns nils, making the operators' delta branches
// dead.
func (dx *deltaState) prep(in *compact.Table, cols []int, right *compact.Table, rightDep uint64) (prior *evalAux, fps []uint64) {
	if dx == nil {
		return nil, nil
	}
	dx.aux = &evalAux{right: right, rightDep: rightDep, cols: cols, memo: make(map[uint64][]deltaPair, len(in.Tuples))}
	dx.fps = make([]uint64, len(in.Tuples))
	if p := dx.prior; p != nil && eqInts(p.cols, cols) {
		if p.right == right || (rightDep != 0 && p.rightDep == rightDep) {
			prior = p
		}
	}
	return prior, dx.fps
}

// eqInts compares dependency-column sets; nil (whole-tuple semantics) and
// empty (no dependencies) are distinct.
func eqInts(a, b []int) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finish builds the memo after the operator's (possibly parallel) loop:
// out(i) must return the outcome recorded for input tuple i — including
// replayed outcomes, so memo chains survive across many versions.
func (dx *deltaState) finish(in *compact.Table, out func(i int) deltaOut) {
	if dx == nil || dx.aux == nil {
		return
	}
	m := dx.aux.memo
	for i, tp := range in.Tuples {
		h := dx.fps[i]
		m[h] = append(m[h], deltaPair{in: tp, out: out(i)})
	}
}

// noteReused credits n replayed tuples to both the deterministic batch
// counters and this evaluation's trace attribution.
func (dx *deltaState) noteReused(batch *statBatch, n int) {
	if n == 0 {
		return
	}
	batch.tuplesReused += int64(n)
	dx.reused.Add(int64(n))
}

// deltaLink names the predecessor, in the previous plan version, of a
// node of the current one. stages is how many stages of a constraint run
// the predecessor covers (0 for every other operator).
type deltaLink struct {
	old    NodeID
	stages int
}

// EnableDelta turns on incremental evaluation for this context: cache
// entries retain per-tuple memos and RegisterDelta links plan versions.
// Enable it before the first evaluation and leave it on; results are
// byte-identical with or without it.
func (ctx *Context) EnableDelta() { ctx.deltaOn = true }

// ResetDelta discards all plan-version links (typically called when a
// session starts a new iteration, before re-registering against the plan
// that will actually precede the next evaluations).
func (ctx *Context) ResetDelta() {
	ctx.mu.Lock()
	clear(ctx.deltaPrev)
	ctx.mu.Unlock()
}

// RegisterDelta declares newRoot to be a refinement of oldRoot: a
// lockstep walk pairs each new node of the new plan with its
// predecessor, pairing a constraint run with the shorter run it extends
// and descending through single inserted (or removed) unary operators —
// the two shapes AddConstraint produces. Shared subtrees are skipped
// (the node cache already reuses them wholesale); structural mismatches
// beyond one unary insertion stop the walk, leaving those nodes to
// evaluate in full. A later registration replaces an earlier one's link
// for the same node (the later predecessor is the closer one) unless it
// covers fewer stages of a constraint run: a trial's previous incarnation
// predates what the base plan has since added to the run, and resuming
// from it would recompute those stages for every tuple. Safe to call
// concurrently (Simulation registers each trial candidate against the
// shared base plan).
func (ctx *Context) RegisterDelta(oldRoot, newRoot Node) {
	if !ctx.deltaOn {
		return
	}
	links := map[NodeID]deltaLink{}
	correspond(oldRoot, newRoot, links)
	ctx.mu.Lock()
	for k, v := range links {
		if cur, ok := ctx.deltaPrev[k]; ok && cur.stages > v.stages {
			continue
		}
		ctx.deltaPrev[k] = v
	}
	ctx.mu.Unlock()
}

// correspond pairs old and new plan nodes position by position.
func correspond(o, n Node, links map[NodeID]deltaLink) {
	if o == nil || n == nil || o.ID() == n.ID() {
		// The same subtree: the node cache reuses it; nothing to link.
		return
	}
	oc, nc := o.Children(), n.Children()
	if len(oc) == len(nc) && sameShape(o, n) {
		link := deltaLink{old: o.ID()}
		if run, ok := o.(*constraintNode); ok {
			link.stages = len(run.cons)
		}
		links[n.ID()] = link
		for i := range nc {
			correspond(oc[i], nc[i], links)
		}
		return
	}
	// One inserted unary operator (the new constraint, or a selection the
	// body re-ordering moved in): align the old node with its child, and
	// symmetrically for a removal. Anything less regular stops the walk.
	if len(nc) == 1 {
		correspond(o, nc[0], links)
		return
	}
	if len(oc) == 1 {
		correspond(oc[0], n, links)
	}
}

// sameShape reports whether two nodes are the same operator with the same
// local parameters — the condition under which a per-tuple outcome from
// the old node is valid for the new one (their inputs may differ; that is
// exactly what the per-tuple memo absorbs). Parameters that change the
// function applied to a tuple must all be compared; constraint runs in
// particular must agree on the prior constraint list, because refinement
// re-checks refined spans against it, and the old run's stages must open
// the new run's: the memo then holds each tuple's outcome after exactly
// those stages, and the new run resumes behind them.
func sameShape(o, n Node) bool {
	switch a := o.(type) {
	case *scanNode:
		b, ok := n.(*scanNode)
		return ok && a.pred == b.pred && eqStrings(a.cols, b.cols)
	case *fromNode:
		b, ok := n.(*fromNode)
		return ok && a.inVar == b.inVar && a.outVar == b.outVar
	case *crossNode:
		b, ok := n.(*crossNode)
		return ok && eqStrings(a.shared, b.shared) && eqStrings(a.cols, b.cols)
	case *unionNode:
		b, ok := n.(*unionNode)
		return ok && len(a.parts) == len(b.parts)
	case *projectNode:
		b, ok := n.(*projectNode)
		return ok && eqStrings(a.srcCols, b.srcCols) && eqStrings(a.outCols, b.outCols)
	case *constraintNode:
		b, ok := n.(*constraintNode)
		return ok && slices.Equal(a.prior, b.prior) && len(a.cons) <= len(b.cons) && slices.Equal(a.cons, b.cons[:len(a.cons)])
	case *compareNode:
		b, ok := n.(*compareNode)
		return ok && a.cmp == b.cmp
	case *funcNode:
		b, ok := n.(*funcNode)
		if !ok || a.fname != b.fname || len(a.args) != len(b.args) {
			return false
		}
		for i := range a.args {
			if a.args[i] != b.args[i] {
				return false
			}
		}
		return true
	case *simJoinNode:
		b, ok := n.(*simJoinNode)
		return ok && a.fname == b.fname && a.leftVar == b.leftVar && a.rightVar == b.rightVar
	case *annotateNode:
		b, ok := n.(*annotateNode)
		return ok && a.exists == b.exists && eqStrings(a.annotate, b.annotate)
	case *procNode:
		b, ok := n.(*procNode)
		return ok && a.pname == b.pname && a.inVar == b.inVar && eqStrings(a.outVars, b.outVars)
	}
	return false
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
