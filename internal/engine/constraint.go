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
// What Refine produced is then re-checked against every constraint applied
// to attr before it, as a narrower span may violate one; refineCell says
// which re-checks it can skip, and it may skip them because the cell
// entering a stage is always refined under the stages before it.
//
// A run evaluates in one pass: per input tuple, stage i is
// refineCell(cell, cons[i], cons[:i+1]), and the tuple stops at the first
// empty cell. The node is interned as its last constraint over the run of
// the others, so every prefix of a run is a node of its own (prev).
//
// The constraints are the handles the compiler interned in the Env's
// memo (feature.Memo.Intern), compared by pointer.
type constraintNode struct {
	ident
	parent Node
	attr   string
	// cons lists every constraint on attr through the run's last; stage i
	// re-checks the first i+1.
	cons []*feature.Cons
	// prev is the run cut before its last stage, nil for a run of one. Eval
	// probes the cache under the prefixes for the predecessor that covers
	// the most stages (runPriorLocked).
	prev *constraintNode
}

// newConstraintNode places the last of applied, which lists every
// constraint on attr up to and including it, above parent. When parent is
// itself a run on the same attribute that has applied exactly the rest, the
// result is parent's run extended by one stage. Any other parent is not
// known to be refined under the rest (a selection or a trial may sit between
// the constraints), so the rest is placed above it first: the result is then
// a run whose stages are the whole of applied. The compiler and
// Plan.WithConstraint therefore build runs by adding constraints one at a
// time, with no rule of their own. The node keeps applied: callers may
// append to it, never write inside it.
func newConstraintNode(env *Env, parent Node, attr string, applied []*feature.Cons) *constraintNode {
	all := applied[:len(applied):len(applied)]
	np := len(all) - 1
	if np > 0 && !appliedRun(parent, attr, all[:np]) {
		parent = newConstraintNode(env, parent, attr, all[:np])
	}
	last := all[np]
	h := cat(make([]byte, 0, headCap), "constrain[", last.Feature.Name(), "(", attr, ")=")
	h = append(strconv.AppendQuote(h, last.Value), ']')
	return env.nodes.intern(h, OpConstraint, func() Node {
		n := &constraintNode{parent: parent, attr: attr, cons: all}
		if np > 0 {
			p := parent.(*constraintNode)
			n.parent, n.prev = p.parent, p
		}
		return n
	}, parent).(*constraintNode)
}

// appliedRun reports whether parent is a run on attr that has applied
// exactly earlier: the run a stage extends.
func appliedRun(parent Node, attr string, earlier []*feature.Cons) bool {
	p, ok := parent.(*constraintNode)
	return ok && p.attr == attr && slices.Equal(earlier, p.cons)
}

func (n *constraintNode) Columns() []string { return n.parent.Columns() }

// Children is the run's input, not the shorter run its identity names.
func (n *constraintNode) Children() []Node { return []Node{n.parent} }

func (n *constraintNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, ins []*compact.Table) (*compact.Table, error) {
	in := ins[0]
	ci := colIndex(in.Cols, n.attr)
	stages := len(n.cons)
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
						if c, ferr = refineCell(batch, &sc, c, n.cons[st], n.cons[:st+1]); ferr != nil {
							return ferr
						}
						if len(c.Assigns) == 0 {
							// No value survives: the tuple is certainly gone, whether
							// its cell expands (every expansion fails) or not.
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
			// The tables between the stages, which the run never builds, hold
			// the tuple once per survived stage but the last.
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

// refineScratch holds the assignment lists one refineCell call works in, so
// that a chunk's worker reuses them from tuple to tuple and stage to stage,
// and the worker's way to the documents' record tables.
type refineScratch struct {
	a, b, before, settled []text.Assignment
	docs                  docCursor
}

// refineCell computes c' = ∪ A(k, m_i(s_i)) for the new constraint k, then
// iterates the full constraint set to a fixpoint (at most three rounds) so
// that every exact span satisfies all constraints and every contain span is
// the result of refining under all of them. Only the returned cell
// allocates, and only when it differs from c: a stage that leaves a
// canonical list as it found it returns c itself.
// c is already refined under all[:len(all)-1]: what k leaves as it is
// settles, and only the rest enters the fixpoint, where every assignment
// lies in one that passed each constraint (inherited). A round skips what
// cannot change the list while it is the one the round found (same): a
// self-stable k, and in the first, a hereditary prior when k is declared
// (its spans are token-aligned). Were c not refined in truth, these would
// skip only re-checks: a superset, never less.
func refineCell(batch *statBatch, sc *refineScratch, c compact.Cell, k *feature.Cons, all []*feature.Cons) (compact.Cell, error) {
	as, settled, spare := sc.a[:0], sc.settled[:0], sc.b
	var err error
	for i, a := range c.Assigns {
		n := len(as)
		if as, err = applyConstraint(batch, &sc.docs, k, c.Assigns[i:i+1], as, false); err != nil {
			return compact.Cell{}, err
		}
		if len(as) == n+1 && as[n] == a {
			as, settled = as[:n], append(settled, a)
		}
	}
	for round := 0; round < 3; round++ {
		sc.before = append(sc.before[:0], as...)
		same := true
		for _, kc := range all {
			if same && (kc == k && k.SelfStable || round == 0 && kc.Hereditary && k.Declared) {
				continue
			}
			next, err := applyConstraint(batch, &sc.docs, kc, as, spare[:0], kc.Hereditary)
			if err != nil {
				return compact.Cell{}, err
			}
			same = same && slices.Equal(next, as)
			as, spare = next, as
		}
		if same || assignmentsStable(sc.before, as, &spare) {
			break
		}
	}
	sc.a, sc.b, sc.settled = as, spare, append(settled, as...)
	if slices.Equal(sc.settled, c.Assigns) && text.CanonicalAssignments(c.Assigns) {
		return c, nil
	}
	return compact.Cell{Assigns: text.DedupAssignments(sc.settled), Expand: c.Expand}, nil
}

// assignmentsStable is refineCell's fixpoint test for a round that changed
// the list on the way: it ends up where it started when it holds the same
// (mode, span) multiset as before it. The lists are compared sorted: before
// in place, after as a copy in *tmp, which must alias neither.
func assignmentsStable(before, after []text.Assignment, tmp *[]text.Assignment) bool {
	if len(before) != len(after) {
		return false
	}
	*tmp = append((*tmp)[:0], after...)
	slices.SortFunc(before, text.CompareAssignments)
	slices.SortFunc(*tmp, text.CompareAssignments)
	return slices.Equal(before, *tmp)
}

// applyConstraint applies one constraint to a list of assignments,
// appending the outcome to out (which must not alias as): Verify for exact
// assignments, Refine for contain assignments — both through the record
// table of the assignment's document, Refine appending in place.
// VerifyCalls/RefineCalls count logical calls (deterministic at any worker
// count); the table hit/miss split is recorded separately. With inherited,
// each assignment lies in one that passed hereditary k: an aligned one passes
// uncalled, as the call would pass it.
func applyConstraint(batch *statBatch, docs *docCursor, k *feature.Cons, as, out []text.Assignment, inherited bool) ([]text.Assignment, error) {
	for _, a := range as {
		if inherited && a.Span.TokenAligned() {
			out = append(out, a)
			continue
		}
		tab := docs.of(a.Span.Doc())
		if a.Mode == text.Exact {
			batch.VerifyCalls++
			ok, hit, err := tab.Verify(k, a.Span)
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
		if out, hit, err = tab.Refine(k, a.Span, out); err != nil {
			return nil, err
		}
		batch.countMemo(hit)
	}
	return out, nil
}
