package engine

import (
	"slices"
	"unsafe"

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
//   - Eval, on a cache miss, attaches the predecessor's per-tuple memo
//     (evalAux) to the evaluation as its delta prior (deltaPriorLocked).
//   - The tuple loop (tupleloop.go) consults the prior per input tuple
//     (fingerprint + exact structural check), hands the operator's decide
//     what it finds, and keeps its outcome array as the memo for the next
//     version.

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

// joinOut is the outcome of ⋈~ and × for one left tuple: its matches in
// right-tuple order, and the valuation-limit fallbacks deciding them
// charged. ⋈~ memoises it; like every memoised outcome it is expressed in
// terms of the cells the operator reads, never the whole tuple: replay
// rebuilds the output from the current input tuple, which is what lets a
// memo survive refinements of unrelated columns.
type joinOut struct {
	sim       []joinMatch
	fallbacks int32
}

func (o joinOut) limitFallbacks() int32 { return o.fallbacks }

// evalAux is the per-tuple memo one evaluation leaves behind for its
// successor: the tuple loop's own working state, kept. in is the input
// table's rows (shared, not copied — kept for the exact structural
// verification of fingerprint matches), fps their fingerprints on cols,
// outs the loop's outcome array (a []O of the operator's outcome type) and
// slots an open-addressed index over fps (buildIndex). cols narrows
// the memo key to the input columns the operator reads (never nil, empty
// when it reads none). For ⋈~ the other input is pinned two ways: right
// by pointer (the node cache guarantees pointer identity when the right
// subtree's signature is unchanged), and rightDep by a content fingerprint
// of the right table's dependency columns, which keeps memos transferable
// when the right subtree was re-evaluated but its join-relevant columns
// came out identical. stages is the number of
// stages of the constraint run that left the memo (0 for every other
// operator): a longer run replays that many and computes the rest. bytes
// is the memo's cache charge (memoBytes).
type evalAux struct {
	right    *compact.Table
	rightDep uint64
	cols     []int
	stages   int
	in       []compact.Tuple
	fps      []uint64
	outs     any
	slots    []int32
	bytes    int64
}

// buildIndex fills slots, at least twice as many as rows, with row
// indices plus one (zero is empty), each at the first free slot from its
// fingerprint's home on. Rows go in in input order, so linear probing
// meets equal fingerprints in input order.
func (a *evalAux) buildIndex() {
	size := 2
	for size < 2*len(a.fps) {
		size <<= 1
	}
	a.slots = make([]int32, size)
	for i, h := range a.fps {
		s := a.home(h)
		for a.slots[s] != 0 {
			s = (s + 1) & (size - 1)
		}
		a.slots[s] = int32(i + 1)
	}
}

// home is the slot a fingerprint's probe starts at: the middle bits of a
// multiplicative hash, which mix every bit of the fingerprint.
func (a *evalAux) home(h uint64) int {
	return int(h*0x9e3779b97f4a7c15>>32) & (len(a.slots) - 1)
}

// lookup returns the index of the first input row structurally identical
// to tp on the memo's dependency columns, -1 when there is none (or no
// memo). The fingerprint narrows the probe; the structural check makes
// hash collisions harmless, and a free slot ends the probe.
func (a *evalAux) lookup(h uint64, tp compact.Tuple) int {
	if a == nil {
		return -1
	}
	for s := a.home(h); a.slots[s] != 0; s = (s + 1) & (len(a.slots) - 1) {
		if i := a.slots[s] - 1; a.fps[i] == h && a.in[i].CellsStructuralEq(tp, a.cols) {
			return int(i)
		}
	}
	return -1
}

// memoBytes is the cache charge of a memo over outs with an index of slots
// entries: each outcome's slot and fingerprint, each index slot, and what
// the outcomes hold — join matches with their replacement maps, ψ's
// contributions; a run's cells are its output rows' and cost nothing more.
func memoBytes[O outcome](outs []O, slots int) int64 {
	b := int64(len(outs))*(int64(unsafe.Sizeof(*new(O)))+8) + 4*int64(slots)
	switch outs := any(outs).(type) {
	case []joinOut:
		for _, o := range outs {
			b += int64(cap(o.sim)) * int64(unsafe.Sizeof(joinMatch{}))
			for _, m := range o.sim {
				b += int64(len(m.repl)) * 64
			}
		}
	case []*annContrib:
		for _, c := range outs {
			b += 64 + 32*int64(len(c.keys))
		}
	}
	return b
}

// deltaState threads delta bookkeeping through one Eval call. It is nil
// when delta evaluation is off (the tuple loop then looks nothing up and
// keeps no outcomes); with delta on, Eval allocates one per evaluation and
// attaches the predecessor's memo as prior when one is found
// (deltaPriorLocked). The loop leaves the memo of this evaluation in aux.
type deltaState struct {
	prior *evalAux
	aux   *evalAux
	// linked is the linked predecessor's entry under the same mode when it
	// covers every stage of a run: what adoptUnrun may hand out, or nil.
	linked *cacheEntry
}

// priorFor returns the predecessor memo usable for the pass that builds
// aux, nil when there is none. The prior is only handed out when its
// narrowing matches, it was left by a run of at most aux's stages, and —
// for ⋈~ — the right input is either the pointer-identical table the prior
// was built against or one whose dependency columns fingerprint
// identically. That holds for a prior a corpus delta displaced too: when
// the mutation rebuilt the right table's join cells, the join probes in
// full.
func (dx *deltaState) priorFor(aux *evalAux) *evalAux {
	p := dx.prior
	if p == nil || !slices.Equal(p.cols, aux.cols) || p.stages > aux.stages {
		return nil
	}
	if p.right == aux.right || (aux.rightDep != 0 && p.rightDep == aux.rightDep) {
		return p
	}
	return nil
}

// deltaLink names the predecessor, in the previous plan version, of a
// node of the current one. stages is how many stages of a constraint run
// the predecessor covers (0 for every other operator).
type deltaLink struct {
	old    NodeID
	stages int
}

// deltaPriorLocked finds the predecessor of a node Eval is about to
// evaluate under key: the state the evaluation threads through its tuple
// loop. In order: the linked predecessor evaluated under the same mode;
// failing that the node's own entry under the previous evaluation mode
// (per-tuple memos are subset-independent: operators decide per tuple, the
// doc filter only gates which tuples the scans emit), which covers the
// final full-corpus execution of an unchanged plan. Callers hold ctx.mu.
func (ctx *Context) deltaPriorLocked(n Node, key entryKey) *deltaState {
	if !ctx.deltaOn {
		return nil
	}
	dx := &deltaState{}
	if link, ok := ctx.deltaPrev[key.node]; ok {
		if pe := ctx.lookupLocked(entryKey{mode: key.mode, node: link.old}); pe != nil {
			dx.prior = pe.aux
			if run, ok := n.(*constraintNode); !ok || link.stages == len(run.cons) {
				dx.linked = pe
			}
		}
	}
	if dx.prior == nil && ctx.prevMode != 0 && ctx.prevMode != key.mode {
		if pe := ctx.lookupLocked(entryKey{mode: ctx.prevMode, node: key.node}); pe != nil {
			dx.prior = pe.aux
		}
	}
	// A constraint run takes the predecessor that covers the most of its
	// stages: the one found above, or a cached shorter run over the same
	// input.
	if run, ok := n.(*constraintNode); ok {
		have := 0
		if dx.prior != nil {
			have = dx.prior.stages
		}
		if aux := ctx.runPriorLocked(run, key.mode, have); aux != nil {
			dx.prior = aux
		}
	}
	// Corpus prior: ApplyCorpusDelta marked this node's last result
	// stale (the plan is typically unchanged, so the plan-delta links
	// above have nothing). Its memo is attached for per-tuple replay,
	// which ⋈~ takes only while its right pin holds (priorFor). The entry
	// is consumed: it is valid for exactly one re-evaluation of its node.
	if dx.prior == nil {
		if cp := ctx.cache[key]; cp != nil && cp.stale {
			dx.prior = cp.aux
			ctx.dropLocked(cp)
			statAdd(&ctx.Stats.CorpusPriorHits, 1)
		}
	}
	return dx
}

// adoptUnrun is adoption, decided before the operator runs: when every
// table in holds what n's linked predecessor read — the table cached under
// the same mode for the predecessor's corresponding child — the
// predecessor's table and memo are n's result, and n's operator is not
// run. That is sound because an operator's output depends only on the
// parameters sameShape compares, the mode and the contents of its inputs;
// cached tables are immutable; StructuralEq compares spans by document
// handle, and a stale entry left by a corpus delta is never current, so a
// table over superseded pages never matches; and a partial table from a
// cut is never cached, so a current entry holds what its node computes
// under its mode. The kids' tables are collected under ctx.mu and compared
// outside it (the pointer check first): a trial fan-out never waits on a
// row-by-row compare. It recharges the predecessor's LimitFallbacks and
// carries a run's stage totals over; only the skipped loop's own counts go
// (its tuples and stages, and the FuncCalls and ProcCalls of memo-less
// selections and procedures).
func (ctx *Context) adoptUnrun(n Node, dx *deltaState, in []*compact.Table, ev *EvalTrace) *compact.Table {
	if dx == nil || dx.linked == nil || len(in) == 0 || noAdopt {
		return nil
	}
	p := dx.linked
	kids := p.node.Children()
	if len(kids) != len(in) {
		return nil
	}
	read := make([]*compact.Table, 0, 2)
	ctx.mu.Lock()
	for _, k := range kids {
		e := ctx.lookupLocked(entryKey{mode: p.key.mode, node: k.ID()})
		if e == nil {
			ctx.mu.Unlock()
			return nil
		}
		read = append(read, e.table)
	}
	ctx.mu.Unlock()
	for i, t := range read {
		if !t.StructuralEq(in[i]) {
			return nil
		}
	}
	if run, ok := n.(*constraintNode); ok {
		ev.resumedFrom = len(run.cons)
		ev.stageAsg.Store(p.trace.stageAsg.Load())
	}
	(&Work{LimitFallbacks: p.trace.work.LimitFallbacks}).add(&ev.work, &ctx.Stats.Work)
	dx.aux = p.aux
	statAdd(&ctx.Stats.TablesAdopted, 1)
	return p.table
}

// noAdopt turns adoption off. Only tests set it (export_test.go):
// evaluation with and without it must agree.
var noAdopt bool

// runPriorLocked looks for a cached run over the same input that covers
// more than have of n's stages: the memo of an entry under one of n's
// prefixes, in the current mode, left by a run of exactly that many stages
// (so it is keyed on the same entering cell). A trial that already
// evaluated the first of two answers folded into one step is found this
// way; the RegisterDelta link alone would resume one stage too early.
// Callers hold ctx.mu.
func (ctx *Context) runPriorLocked(n *constraintNode, mode uint32, have int) *evalAux {
	for ; n != nil && len(n.cons) > have; n = n.prev {
		if e := ctx.lookupLocked(entryKey{mode: mode, node: n.id}); e != nil && e.aux != nil && e.aux.stages == len(n.cons) {
			return e.aux
		}
	}
	return nil
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
// exactly what the per-tuple memo absorbs). Their heads say that, with one
// exception: a constraint run's head names only its last stage, and the old
// run's stages must open the new run's: the memo then holds each tuple's
// outcome after exactly those stages, and the new run resumes behind them.
func sameShape(o, n Node) bool {
	a, aok := o.(*constraintNode)
	b, bok := n.(*constraintNode)
	if aok && bok {
		return a.attr == b.attr && len(a.cons) <= len(b.cons) && slices.Equal(a.cons, b.cons[:len(a.cons)])
	}
	return o.identity().head == n.identity().head
}
