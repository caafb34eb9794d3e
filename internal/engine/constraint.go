package engine

import (
	"slices"
	"sync/atomic"

	"iflex/internal/compact"
	"iflex/internal/feature"
	"iflex/internal/text"
)

// constraintNode applies a run of domain constraints f(attr) = v on one
// attribute to the attr column, using the features' Verify/Refine
// procedures (Section 4.2):
//
//	exact(s)   -> kept iff Verify(s, f, v)
//	contain(s) -> Refine(s, f, v): assignments over the maximal verifying
//	              sub-spans
//
// Spans produced by Refine are then re-checked against every constraint
// previously applied to the same attribute — prior, then the run's own
// earlier stages — because refining with a later constraint can produce
// sub-spans that violate an earlier one.
//
// A run evaluates in one pass: per input tuple, stage i makes the call a
// chain of one-constraint nodes would make, refineCell(cell, cons[i],
// prior+cons[:i+1]), and stops at the first empty cell. Cells, drops,
// tuple order and the Verify/Refine call sequence are the chain's; only
// the chain's intermediate tables are never built. The node is interned as
// the chain's top node would be, last constraint over the run below it, so
// every prefix of a run is the node the chain has for that stage (prev).
type constraintNode struct {
	ident
	parent Node
	cons   []feature.Constraint
	prior  []feature.Constraint
	// prev is the run cut before its last stage, nil for a run of one. Eval
	// probes the cache under the prefixes for the predecessor that covers
	// the most stages (runPriorLocked).
	prev *constraintNode
}

// newConstraintNode places cons above parent. When parent is itself a run
// on the same attribute and prior lists exactly what that run has applied,
// the result is parent's run extended by one stage; anything else starts a
// new run. The compiler and the optimizer therefore build runs by adding
// constraints one at a time, with no rule of their own.
func newConstraintNode(env *Env, parent Node, cons feature.Constraint, prior []feature.Constraint) *constraintNode {
	k := nodeKey{head: "constrain[" + cons.String() + "]", l: parent.ID()}
	if n := env.nodes.get(k); n != nil {
		return n.(*constraintNode)
	}
	var n *constraintNode
	if p, ok := parent.(*constraintNode); ok && !stackRuns && p.attr() == cons.Attr && p.hasApplied(prior) {
		n = &constraintNode{parent: p.parent, prior: p.prior, cons: append(slices.Clone(p.cons), cons), prev: p}
	} else {
		n = &constraintNode{parent: parent, prior: slices.Clone(prior), cons: []feature.Constraint{cons}}
	}
	return env.nodes.put(k, n, parent).(*constraintNode)
}

// stackRuns makes newConstraintNode build the chain of one-stage nodes a
// run replaces. Only tests set it: the chain is the oracle every run is
// compared with.
var stackRuns bool

// applied lists every constraint on the attribute up to and including the
// run: stage i re-checks applied()[:len(prior)+i+1].
func (n *constraintNode) applied() []feature.Constraint {
	return append(slices.Clone(n.prior), n.cons...)
}

// hasApplied reports whether list is applied(), without building it.
func (n *constraintNode) hasApplied(list []feature.Constraint) bool {
	np := len(n.prior)
	return len(list) == np+len(n.cons) && slices.Equal(list[:np], n.prior) && slices.Equal(list[np:], n.cons)
}

func (n *constraintNode) attr() string      { return n.cons[0].Attr }
func (n *constraintNode) Columns() []string { return n.parent.Columns() }

// Children is the run's input, not the shorter run its identity names.
func (n *constraintNode) Children() []Node { return []Node{n.parent} }

// runPriorLocked looks for a cached run over the same input that covers
// more than have of n's stages: an entry under one of n's prefixes whose
// memo was left by a run of exactly that many stages (so it is keyed on the
// same entering cell). A trial that already evaluated the first of two
// answers folded into one step is found this way; the RegisterDelta link
// alone would resume one stage too early. The previous evaluation mode
// (0 = none) is probed like Eval probes it for links, memo only. Callers
// hold ctx.mu.
func (ctx *Context) runPriorLocked(n *constraintNode, mode, prevMode uint32, have int) (*evalAux, *compact.Table) {
	for ; n != nil && len(n.cons) > have; n = n.prev {
		covers := func(e *cacheEntry) bool { return e != nil && e.aux != nil && e.aux.stages == len(n.cons) }
		if e := ctx.lookupLocked(entryKey{mode: mode, node: n.id}); covers(e) {
			return e.aux, e.table
		}
		if prevMode != 0 {
			if e := ctx.lookupLocked(entryKey{mode: prevMode, node: n.id}); covers(e) {
				return e.aux, nil
			}
		}
	}
	return nil, nil
}

func (n *constraintNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState) (*compact.Table, error) {
	in, err := Eval(ctx, n.parent)
	if err != nil {
		return nil, err
	}
	ci := colIndex(in.Cols, n.attr())
	all, err := resolveStages(ctx.Env, n.applied())
	if err != nil {
		return nil, err
	}
	np, stages := len(n.prior), len(n.cons)
	out := compact.NewTable(in.Cols...)
	// Tuples refine independently (features are pure, the record tables are
	// concurrency-safe), so the loop is partitioned across the worker
	// pool; per-index result slots keep the output order serial-identical.
	// With a delta prior attached, a tuple whose entering cell the prior has
	// seen resumes after the stages the prior covered: none left replays the
	// memoised outcome (kept-as cell or dropped) without entering
	// Verify/Refine at all, one left is the call a new top constraint makes.
	// The memo depends only on the constrained attribute's cell: a tuple
	// whose other columns were refined in between still replays, with the
	// output rebuilt from the current tuple plus the memoised refined cell.
	prior, fps := dx.prep(in, []int{ci}, nil, 0)
	covered := -1
	if prior != nil && prior.stages >= 1 && prior.stages <= stages {
		covered = prior.stages
	} else {
		prior = nil
	}
	rows := make([]compact.Tuple, len(in.Tuples))
	var outs []runOut
	if fps != nil {
		dx.aux.stages = stages
		outs = make([]runOut, len(in.Tuples))
	}
	var nq, ncut, hidden atomic.Int64
	err = ctx.parallelChunksSized(len(in.Tuples), minChunkConstraint, func(start, end int) error {
		var batch statBatch
		defer batch.flush(ctx)
		sc := refineScratch{docs: docCursor{memo: ctx.Env.FeatureMemo}}
		reused, asg := 0, 0
		for i := start; i < end; i++ {
			if cut, cerr := ctx.cutCheck(); cerr != nil {
				return cerr
			} else if cut {
				ctx.noteUnprocessed(in.Tuples[i:end])
				ncut.Add(1)
				break
			}
			tp := in.Tuples[i]
			// o is the tuple's outcome so far, nothing or what the prior's
			// stages left of it.
			var o runOut
			from := 0
			if fps != nil {
				fps[i] = dx.aux.fpOf(tp)
				if old, ok := prior.lookup(fps[i], tp); ok {
					o, from = runOut{old.cell, old.stages, old.stageSum}, covered
				}
			}
			if int(o.stages) == from && from < stages {
				batch.tuplesRecomputed++
				qed, err := ctx.guard(ev, "feature", func() []string { return tupleDocs(tp, []int{ci}) }, func() error {
					// Work on locals and commit at the end: a retry restarts
					// from the resume point.
					c, s, sum := tp.Cells[ci], o.stages, o.stageSum
					if o.cell != nil {
						c = *o.cell
					}
					for st := from; st < stages; st++ {
						batch.stages++
						var ferr error
						if c, ferr = refineCell(&batch, &sc, c, all[np+st], all[:np+st+1]); ferr != nil {
							return ferr
						}
						if len(c.Assigns) == 0 {
							// No possible value for the attribute survives: the tuple
							// is certainly gone (both for expansion cells — all
							// expanded tuples fail — and plain cells — no valuation
							// exists).
							break
						}
						s, sum = s+1, sum+int32(len(c.Assigns))
					}
					o = runOut{stages: s, stageSum: sum}
					if int(s) == stages {
						final := c
						o.cell = &final
					}
					return nil
				})
				if err != nil {
					return err
				}
				if qed {
					nq.Add(1)
					continue
				}
			} else {
				reused++
			}
			// The stage tables a chain would have built below this node's
			// output hold the tuple once per survived stage but the last.
			if m := min(int(o.stages), stages-1); m > 0 {
				sum := int(o.stageSum)
				if int(o.stages) == stages {
					sum -= len(o.cell.Assigns)
				}
				asg += m*(tupleAssignments(tp)-len(tp.Cells[ci].Assigns)) + sum
			}
			if int(o.stages) == stages {
				rows[i] = tp.Copy()
				rows[i].Cells[ci] = *o.cell
			}
			if outs != nil {
				outs[i] = o
			}
		}
		hidden.Add(int64(asg))
		dx.noteReused(&batch, reused)
		ev.recompute(batch.tuplesRecomputed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n := nq.Load(); n > 0 {
		return nil, quarantineErr("feature", n)
	}
	// Dropped tuples left a zero slot; close the gaps in place.
	kept := rows[:0]
	for _, nt := range rows {
		if nt.Cells != nil {
			kept = append(kept, nt)
		}
	}
	clear(rows[len(kept):])
	out.Tuples = kept
	if ncut.Load() == 0 {
		dx.finish(in, func(i int) deltaOut {
			return deltaOut{cell: outs[i].cell, stages: outs[i].stages, stageSum: outs[i].stageSum}
		})
	}
	ev.run(stages, covered, hidden.Load())
	return out, nil
}

// runOut is a run's outcome for one tuple, the constraint operator's part
// of deltaOut: the cell after the stages survived (nil before the first
// and after a drop), their number, and the summed cell sizes after each.
type runOut struct {
	cell             *compact.Cell
	stages, stageSum int32
}

// tupleAssignments counts the assignments of one tuple, the per-tuple term
// of Table.NumAssignments.
func tupleAssignments(tp compact.Tuple) int {
	n := 0
	for _, c := range tp.Cells {
		n += len(c.Assigns)
	}
	return n
}

// stage is one constraint resolved for a node evaluation: the feature
// looked up and its (feature, parameter) pair interned once, where every
// application would otherwise pay for both by name.
type stage struct {
	f     feature.Feature
	id    feature.ConsID
	value string
}

func resolveStages(env *Env, cons []feature.Constraint) ([]stage, error) {
	out := make([]stage, len(cons))
	for i, k := range cons {
		f, err := env.Features.Lookup(k.Feature)
		if err != nil {
			return nil, err
		}
		out[i] = stage{f: f, id: env.FeatureMemo.Intern(k.Feature, k.Value), value: k.Value}
	}
	return out, nil
}

// refineScratch holds the assignment lists one refineCell call works in, so
// that a chunk's worker reuses them from tuple to tuple and stage to stage,
// and the worker's way to the documents' record tables.
type refineScratch struct {
	a, b, before []text.Assignment
	docs         docCursor
}

// refineCell computes c' = ∪ A(k, m_i(s_i)) for the new constraint k, then
// iterates the full constraint set to a fixpoint (bounded) so that every
// exact span satisfies all constraints and every contain span is the
// result of refining under all of them. Only the returned cell allocates.
func refineCell(batch *statBatch, sc *refineScratch, c compact.Cell, k stage, all []stage) (compact.Cell, error) {
	as, err := applyConstraint(batch, &sc.docs, k, c.Assigns, sc.a[:0])
	if err != nil {
		return compact.Cell{}, err
	}
	spare := sc.b
	const maxRounds = 3
	for round := 0; round < maxRounds; round++ {
		sc.before = append(sc.before[:0], as...)
		for _, kc := range all {
			next, err := applyConstraint(batch, &sc.docs, kc, as, spare[:0])
			if err != nil {
				return compact.Cell{}, err
			}
			as, spare = next, as
		}
		if assignmentsStable(sc.before, as) {
			break
		}
	}
	sc.a, sc.b = as, spare
	return compact.Cell{Assigns: text.DedupAssignments(as), Expand: c.Expand}, nil
}

// assignmentsStable is refineCell's fixpoint test: a round changed nothing
// when the list renders as it did before the round. Identical lists render
// identically, so only lists that differ are rendered.
func assignmentsStable(before, after []text.Assignment) bool {
	return slices.Equal(before, after) || text.FormatAssignments(before) == text.FormatAssignments(after)
}

// applyConstraint applies one constraint to a list of assignments,
// appending the outcome to out (which must not alias as): Verify for exact
// assignments, Refine for contain assignments — both through the record
// table of the assignment's document (directly when the Env has no memo).
// VerifyCalls/RefineCalls count logical calls (deterministic at any worker
// count); the table hit/miss split is recorded separately.
func applyConstraint(batch *statBatch, docs *docCursor, k stage, as, out []text.Assignment) ([]text.Assignment, error) {
	for _, a := range as {
		tab := docs.of(a.Span.Doc())
		if a.Mode == text.Exact {
			batch.verifyCalls++
			ok, hit, err := tab.Verify(k.f, k.id, a.Span, k.value)
			if err != nil {
				return nil, err
			}
			batch.countMemo(hit)
			if ok {
				out = append(out, a)
			}
			continue
		}
		batch.refineCalls++
		refined, hit, err := tab.Refine(k.f, k.id, a.Span, k.value)
		if err != nil {
			return nil, err
		}
		batch.countMemo(hit)
		out = append(out, refined...)
	}
	return out, nil
}
