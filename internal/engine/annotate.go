package engine

import (
	"slices"
	"strconv"
	"strings"

	"iflex/internal/compact"
	"iflex/internal/text"
)

// annotateNode is the ψ operator of Section 4.3: it converts the set of
// possible relations produced by a rule's plan fragment according to the
// rule's annotations (exists, annotated attribute set).
type annotateNode struct {
	ident
	parent   Node
	exists   bool
	annotate []string // annotated column names
}

func newAnnotateNode(env *Env, parent Node, exists bool, annotated []string) *annotateNode {
	// Sorted on the stack: a hit allocates nothing.
	var buf [8]string
	ann := append(buf[:0], annotated...)
	slices.Sort(ann)
	h := cat(make([]byte, 0, headCap), "annotate[exists=", strconv.FormatBool(exists), ",attrs=")
	h = append(catList(h, ann), ']')
	return env.nodes.intern(h, OpAnnotate, func() Node {
		return &annotateNode{parent: parent, exists: exists, annotate: append([]string(nil), ann...)}
	}, parent).(*annotateNode)
}

func (n *annotateNode) Columns() []string { return n.parent.Columns() }

func (n *annotateNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, ins []*compact.Table) (*compact.Table, error) {
	in := ins[0]
	// Annotation is pure and cheap (no user code), so a cut lets it run to
	// completion over whatever the parent produced.
	out := in
	if len(n.annotate) > 0 {
		var err error
		if out, err = n.annotateTable(ctx, ev, dx, in); err != nil {
			return nil, err
		}
	}
	if n.exists {
		// Existence annotation: every tuple becomes a maybe tuple. Rows this
		// evaluation built are marked in place; the input's rows get new
		// tuple headers over their cells.
		if out == in {
			out = compact.NewTable(in.Cols...)
			out.Tuples = slices.Clone(in.Tuples)
		}
		for i := range out.Tuples {
			out.Tuples[i].Maybe = true
		}
	}
	return out, nil
}

// annotateTable applies the attribute annotation (Section 4.3). Tuples are
// grouped by the values of the non-annotated attributes; each group yields
// one output tuple whose annotated cells union all the group's assignments
// (the full set of values that can be associated with the key), and whose
// maybe flag is cleared only when some non-maybe input tuple pins the key
// exactly. Key cells that are exact singletons group precisely (the common
// case: the key is the input document); a key cell with several possible
// values makes its tuple contribute to every key it may take, as a maybe
// member; a key cell too large to enumerate passes its tuple through
// ungrouped as a maybe tuple, which keeps the superset guarantee at the cost
// of precision (a LimitFallback).
//
// The per-tuple key enumeration is what decide memoises, as an annContrib,
// and emit is the grouping merge, which therefore replays memoised
// contributions for structurally unchanged tuples. The contribution depends
// only on the key cells, so the memo is keyed on them alone; the merge reads
// annotated cells and maybe flags from the current tuples, so replays stay
// valid across refinements of the annotated columns. Merging is
// order-dependent: one serial chunk.
func (n *annotateNode) annotateTable(ctx *Context, ev *EvalTrace, dx *deltaState, in *compact.Table) (*compact.Table, error) {
	lim := ctx.Env.limits
	keyIdx, annIdx := splitAnnCols(in.Cols, n.annotate)
	m := annMerger{keyIdx: keyIdx, annIdx: annIdx,
		index: make(map[string]int32, len(in.Tuples)), groups: make([]annGroup, 0, len(in.Tuples))}
	out, err := tupleLoop(ctx, ev, dx, in, in.Cols, tupleOp[*annContrib]{
		cols: keyIdx, uncut: true,
		open: func(*statBatch) decideFn[*annContrib] {
			return func(tp compact.Tuple, old **annContrib) (*annContrib, bool, bool, error) {
				if old != nil {
					return *old, true, false, nil
				}
				return annContribOf(tp, keyIdx, annIdx, lim), false, false, nil
			}
		},
		emit: func(dst []compact.Tuple, tp compact.Tuple, o **annContrib) []compact.Tuple { return m.add(dst, tp, *o) },
	})
	if err != nil {
		return nil, err
	}
	out.Tuples = m.finish(out.Tuples, len(in.Cols))
	return out, nil
}

// splitAnnCols partitions column indices into key (non-annotated) and
// annotated positions. keyIdx is the annotation's memo key, empty rather
// than nil when every column is annotated.
func splitAnnCols(cols []string, annotated []string) (keyIdx, annIdx []int) {
	keyIdx = []int{}
	isAnn := map[int]bool{}
	for _, a := range annotated {
		isAnn[colIndex(cols, a)] = true
	}
	for i := range cols {
		if isAnn[i] {
			annIdx = append(annIdx, i)
		} else {
			keyIdx = append(keyIdx, i)
		}
	}
	return keyIdx, annIdx
}

// annContrib is one input tuple's contribution to the annotation grouping:
// either a conservative pass-through marker (key too large to enumerate,
// or no key valuation) or the ordered list of group keys the tuple feeds,
// with the key spans that create each group and whether the key cells are
// all pinned singletons. It depends only on the tuple's key cells — the
// merge reads the annotated cells and the maybe flag from the current
// input tuple — which is what makes it memoisable across plan versions
// under a key-columns-only memo.
type annContrib struct {
	pass     bool
	fallback bool
	exactKey bool
	keys     []string
	keySpans [][]text.Span
}

// A contribution is ψ's outcome as it stands.
func (c *annContrib) limitFallbacks() int32 {
	if c.fallback {
		return 1
	}
	return 0
}

// annContribOf enumerates one tuple's key valuations (the per-tuple half
// of the annotation).
func annContribOf(tp compact.Tuple, keyIdx, annIdx []int, lim limits) *annContrib {
	keyVals := make([][]text.Span, len(keyIdx))
	exactKey := true
	tooBig := false
	combos := 1
	for i, ki := range keyIdx {
		cell := tp.Cells[ki]
		if cell.NumValues() > lim.MaxCellValues {
			tooBig = true
			break
		}
		var vs []text.Span
		cell.Values(func(s text.Span) bool { vs = append(vs, s); return true })
		keyVals[i] = vs
		if len(vs) != 1 {
			exactKey = false
		}
		combos *= len(vs)
		if combos > lim.MaxValuations {
			tooBig = true
			break
		}
	}
	if tooBig || combos == 0 {
		// Conservative pass-through (the merge clones the current tuple).
		return &annContrib{pass: true, fallback: tooBig}
	}
	c := &annContrib{exactKey: exactKey}
	idx := make([]int, len(keyIdx))
	var kb []byte
	for {
		keySpans := make([]text.Span, len(keyIdx))
		for i, j := range idx {
			keySpans[i] = keyVals[i][j]
		}
		// A key is a fresh string: NormText may have handed out a slice of
		// the page, and the contribution is memoised across evaluations, so
		// it must not keep a released page's text alive. A lone part is the
		// key; each of several is preceded by its byte length, so two keys
		// are equal only when their parts' texts are, whatever bytes those
		// texts hold.
		if len(idx) == 1 {
			c.keys = append(c.keys, strings.Clone(keySpans[0].NormText()))
		} else {
			kb = kb[:0]
			for _, s := range keySpans {
				part := s.NormText()
				kb = append(append(strconv.AppendInt(kb, int64(len(part)), 10), ':'), part...)
			}
			c.keys = append(c.keys, string(kb))
		}
		c.keySpans = append(c.keySpans, keySpans)
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(keyVals[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return c
}

// annGroup accumulates one output group during the merge. first holds the
// cells of the tuple that created it; ann stays nil while that tuple is the
// only contributor, and a second one starts the concatenation with first's
// assignments.
type annGroup struct {
	keySpans []text.Span
	first    []compact.Cell
	ann      [][]text.Assignment // per annotated column
	sure     bool                // some non-maybe tuple pins this key exactly
}

// annMerger folds per-tuple contributions into the grouped output, in input
// order: add appends pass-through tuples where they occur and feeds the
// groups, group creation order follows first key occurrence, per-group
// assignment concatenation follows tuple order, and finish appends one
// tuple per group. Input rows are immutable, so what a group can take from
// its creating tuple as it is — a key cell that is exactly the key, the
// annotated lists of a lone contributor when they are already canonical —
// is shared, not rebuilt.
type annMerger struct {
	keyIdx, annIdx []int
	index          map[string]int32 // key -> position in groups
	groups         []annGroup
}

func (m *annMerger) add(dst []compact.Tuple, tp compact.Tuple, c *annContrib) []compact.Tuple {
	if c.pass {
		return append(dst, compact.Tuple{Cells: tp.Cells, Maybe: true})
	}
	for ki, key := range c.keys {
		gi, ok := m.index[key]
		if !ok {
			gi = int32(len(m.groups))
			m.index[key] = gi
			m.groups = append(m.groups, annGroup{keySpans: c.keySpans[ki], first: tp.Cells})
		}
		g := &m.groups[gi]
		if ok {
			if g.ann == nil {
				g.ann = make([][]text.Assignment, len(m.annIdx))
				for i, ai := range m.annIdx {
					g.ann[i] = append(g.ann[i], g.first[ai].Assigns...)
				}
			}
			for i, ai := range m.annIdx {
				g.ann[i] = append(g.ann[i], tp.Cells[ai].Assigns...)
			}
		}
		if c.exactKey && !tp.Maybe {
			g.sure = true
		}
	}
	return dst
}

// finish appends the group rows, their cells cut from one slab.
func (m *annMerger) finish(dst []compact.Tuple, ncols int) []compact.Tuple {
	cells := make([]compact.Cell, len(m.groups)*ncols)
	for gi := range m.groups {
		g := &m.groups[gi]
		row := cells[gi*ncols : (gi+1)*ncols : (gi+1)*ncols]
		for i, ki := range m.keyIdx {
			if c := g.first[ki]; !c.Expand && len(c.Assigns) == 1 && c.Assigns[0] == text.ExactOf(g.keySpans[i]) {
				row[ki] = c
			} else {
				row[ki] = compact.ExactCell(g.keySpans[i])
			}
		}
		for i, ai := range m.annIdx {
			as := g.first[ai].Assigns
			switch {
			case g.ann != nil:
				as = text.DedupAssignments(g.ann[i])
			case text.CanonicalAssignments(as):
				as = as[:len(as):len(as)]
			default:
				as = text.DedupAssignments(as)
			}
			row[ai] = compact.Cell{Assigns: as}
		}
		dst = append(dst, compact.Tuple{Cells: row, Maybe: !g.sure})
	}
	return dst
}
