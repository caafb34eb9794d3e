package engine

import (
	"slices"
	"strconv"

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
// sub-spans that violate an earlier one. Where the plan shows a cell is
// already refined under them, only what Refine produced is (refineCell).
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
	// The key is cons.String() written out: this runs for every stage of
	// every plan built, hits included.
	k := nodeKey{head: "constrain[" + cons.Feature + "(" + cons.Attr + ")=" + strconv.Quote(cons.Value) + "]", l: parent.ID()}
	if n := env.nodes.get(k); n != nil {
		return n.(*constraintNode)
	}
	var n *constraintNode
	if p, ok := appliedRun(parent, cons.Attr, prior); ok && !stackRuns {
		n = &constraintNode{parent: p.parent, prior: p.prior, cons: slices.Concat(p.cons, []feature.Constraint{cons}), prev: p}
	} else {
		n = &constraintNode{parent: parent, prior: slices.Clone(prior), cons: []feature.Constraint{cons}}
	}
	return env.nodes.put(k, n, parent).(*constraintNode)
}

// appliedRun returns parent as a run on attr that has applied exactly prior
// (compared in place): the run a stage extends, an input refined under prior.
func appliedRun(parent Node, attr string, prior []feature.Constraint) (*constraintNode, bool) {
	p, ok := parent.(*constraintNode)
	if !ok || p.attr() != attr || len(prior) != len(p.prior)+len(p.cons) {
		return nil, false
	}
	return p, slices.Equal(prior[:len(p.prior)], p.prior) && slices.Equal(prior[len(p.prior):], p.cons)
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

func (n *constraintNode) attr() string      { return n.cons[0].Attr }
func (n *constraintNode) Columns() []string { return n.parent.Columns() }

// Children is the run's input, not the shorter run its identity names.
func (n *constraintNode) Children() []Node { return []Node{n.parent} }

func (n *constraintNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, ins []*compact.Table) (*compact.Table, error) {
	in := ins[0]
	ci := colIndex(in.Cols, n.attr())
	all, err := resolveStages(ctx.Env, n.applied())
	if err != nil {
		return nil, err
	}
	np, stages := len(n.prior), len(n.cons)
	_, refined := appliedRun(n.parent, n.attr(), n.prior)
	// Tuples refine independently (features are pure, the record tables are
	// concurrency-safe), so the loop fans out. The memo depends only on the
	// constrained attribute's cell: a tuple whose other columns were refined
	// in between still replays, with the output rebuilt from the current
	// tuple plus the memoised refined cell.
	op := tupleOp[runOut]{site: "feature", cols: []int{ci}, stages: stages, minChunk: minChunkConstraint}
	op.open = func(batch *statBatch) decideFn[runOut] {
		sc := refineScratch{docs: docCursor{memo: ctx.Env.FeatureMemo}}
		return func(tp compact.Tuple, old *runOut) (runOut, bool, bool, error) {
			// o is the tuple's outcome so far: nothing, or what the stages the
			// prior covered left of it — the cell after them, or an empty cell
			// when one of them dropped the tuple. Only a surviving cell with stages
			// left resumes: none left replays the memoised outcome without
			// entering Verify/Refine at all, one left is the call a new top
			// constraint makes.
			var o runOut
			if old != nil {
				o = *old
			}
			reused := old != nil && (!o.survived() || int(o.stages) == stages)
			if !reused {
				qed := ctx.guard(ev, op.site, tp, op.cols, func() error {
					// Work on locals and commit at the end: a retry restarts
					// from the resume point.
					c, s, sum := tp.Cells[ci], o.stages, o.stageSum
					if o.survived() {
						c = o.cell
					}
					for st := int(s); st < stages; st++ {
						batch.ConstraintStages++
						var ferr error
						if c, ferr = refineCell(batch, &sc, c, all[np+st], all[:np+st+1], refined || np == 0 || st > 0); ferr != nil {
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
						o.cell = c
					}
					return nil
				})
				if qed {
					return runOut{}, false, true, nil
				}
			}
			// The stage tables a chain would have built below this node's
			// output hold the tuple once per survived stage but the last.
			if m := min(int(o.stages), stages-1); m > 0 {
				sum := int(o.stageSum)
				if int(o.stages) == stages {
					sum -= len(o.cell.Assigns)
				}
				batch.stageAsg += int64(m*(tupleAssignments(tp)-len(tp.Cells[ci].Assigns)) + sum)
			}
			return o, reused, false, nil
		}
	}
	// After decide an outcome holds a non-empty cell exactly when the tuple
	// survived the whole run.
	op.emit = func(dst []compact.Tuple, tp compact.Tuple, o *runOut) []compact.Tuple {
		if !o.survived() {
			return dst
		}
		if c := tp.Cells[ci]; c.Expand == o.cell.Expand && len(c.Assigns) == len(o.cell.Assigns) && &c.Assigns[0] == &o.cell.Assigns[0] {
			return append(dst, tp) // every stage returned the entering cell
		}
		nt := tp.Copy()
		nt.Cells[ci] = o.cell
		return append(dst, nt)
	}
	return tupleLoop(ctx, ev, dx, in, in.Cols, op)
}

// runOut is a constraint run's outcome for one tuple: the attribute cell
// after the whole run, by value (empty when the tuple was dropped), how
// many stages the tuple survived, and the summed sizes of its cell after
// each of them — what a longer run resuming from this memo needs to total
// the stage tables it never builds, see SumAssignments.
type runOut struct {
	cell             compact.Cell
	stages, stageSum int32
}

// survived reports whether the tuple survived the whole run that decided o.
func (o *runOut) survived() bool     { return len(o.cell.Assigns) > 0 }
func (runOut) limitFallbacks() int32 { return 0 }

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
	f          feature.Feature
	id         feature.ConsID
	value      string
	hereditary bool // Memo.Hereditary(f, id, value)
}

func resolveStages(env *Env, cons []feature.Constraint) ([]stage, error) {
	out := make([]stage, len(cons))
	for i, k := range cons {
		f, err := env.Features.Lookup(k.Feature)
		if err != nil {
			return nil, err
		}
		id := env.FeatureMemo.Intern(k.Feature, k.Value)
		out[i] = stage{f: f, id: id, value: k.Value, hereditary: env.FeatureMemo.Hereditary(f, id, k.Value)}
	}
	return out, nil
}

// refineScratch holds the assignment lists one refineCell call works in, so
// that a chunk's worker reuses them from tuple to tuple and stage to stage,
// and the worker's way to the documents' record tables.
type refineScratch struct {
	a, b, before, settled []text.Assignment
	docs                  docCursor
}

// refineCell computes c' = ∪ A(k, m_i(s_i)) for the new constraint k, then
// iterates the full constraint set to a fixpoint (bounded) so that every
// exact span satisfies all constraints and every contain span is the
// result of refining under all of them. Only the returned cell allocates,
// and only when it differs from c: a stage that leaves a canonical list as
// it found it returns c itself.
// refined states that c is already refined under all[:len(all)-1]: what k
// leaves as it is then settles, and only the rest enters the fixpoint, where
// every assignment lies in one that passed each constraint (inherited). If
// that is false, settling skips only re-checks: a superset, never less.
func refineCell(batch *statBatch, sc *refineScratch, c compact.Cell, k stage, all []stage, refined bool) (compact.Cell, error) {
	as, settled, spare := sc.a[:0], sc.settled[:0], sc.b
	var err error
	for i, a := range c.Assigns {
		n := len(as)
		if as, err = applyConstraint(batch, &sc.docs, k, c.Assigns[i:i+1], as, false); err != nil {
			return compact.Cell{}, err
		}
		if refined && len(as) == n+1 && as[n] == a {
			as, settled = as[:n], append(settled, a)
		}
	}
	const maxRounds = 3
	for round := 0; round < maxRounds; round++ {
		sc.before = append(sc.before[:0], as...)
		for _, kc := range all {
			next, err := applyConstraint(batch, &sc.docs, kc, as, spare[:0], refined && kc.hereditary)
			if err != nil {
				return compact.Cell{}, err
			}
			as, spare = next, as
		}
		if assignmentsStable(sc.before, as) {
			break
		}
	}
	sc.a, sc.b, sc.settled = as, spare, append(settled, as...)
	if slices.Equal(sc.settled, c.Assigns) && text.CanonicalAssignments(c.Assigns) {
		return c, nil
	}
	return compact.Cell{Assigns: text.DedupAssignments(sc.settled), Expand: c.Expand}, nil
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
// table of the assignment's document, Refine appending in place.
// VerifyCalls/RefineCalls count logical calls (deterministic at any worker
// count); the table hit/miss split is recorded separately. With inherited,
// each assignment lies in one that passed hereditary k: an aligned one passes
// uncalled, as the call would pass it.
func applyConstraint(batch *statBatch, docs *docCursor, k stage, as, out []text.Assignment, inherited bool) ([]text.Assignment, error) {
	for _, a := range as {
		if inherited && a.Span.TokenAligned() {
			out = append(out, a)
			continue
		}
		tab := docs.of(a.Span.Doc())
		if a.Mode == text.Exact {
			batch.VerifyCalls++
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
		batch.RefineCalls++
		var hit bool
		var err error
		if out, hit, err = tab.Refine(k.f, k.id, a.Span, k.value, out); err != nil {
			return nil, err
		}
		batch.countMemo(hit)
	}
	return out, nil
}
