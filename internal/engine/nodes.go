package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"iflex/internal/compact"
	"iflex/internal/text"
)

// NodeID is a plan node's identity: equal subtrees built against one Env
// are one node with one id, and no two nodes of the process share an id,
// so a plan evaluated under a Context of another Env cannot alias there.
type NodeID uint64

var lastNodeID atomic.Uint64

func newNodeID() NodeID { return NodeID(lastNodeID.Add(1)) }

// ident is a node's identity, embedded in every node type and filled in by
// nodeTable.intern: the id, the operator kind, and what Signature renders —
// head, the operator with its local parameters, applied to kids.
type ident struct {
	id   NodeID
	kind OpKind
	head string
	kids []Node
	once sync.Once
	sig  string
}

func (s *ident) identity() *ident { return s }

// ID returns the node's identity, the reuse key.
func (s *ident) ID() NodeID { return s.id }

// Children returns the node's input operators.
func (s *ident) Children() []Node { return s.kids }

// Signature renders the subtree canonically, once, on first use: equal
// nodes render equal strings and different nodes different ones.
func (s *ident) Signature() string {
	s.once.Do(func() {
		sigs := make([]string, len(s.kids))
		for i, k := range s.kids {
			sigs[i] = k.Signature()
		}
		if s.head == "union" {
			s.sig = "union(" + strings.Join(sigs, ";") + ")"
		} else if len(sigs) > 0 {
			s.sig = s.head + "(" + strings.Join(sigs, ")(") + ")"
		} else {
			s.sig = s.head
		}
	})
	return s.sig
}

// nodeTable interns the nodes built against one Env. Every constructor
// asks it first and builds only what it does not have, so structural
// equality is decided once, where a node is made, and is pointer equality
// from then on — within a plan, across the trial plans of a session and
// across its iterations.
type nodeTable struct {
	mu sync.Mutex
	m  map[string]Node
}

// headCap is the stack buffer a constructor writes its node's head into,
// and intern the key; a longer one moves to the heap.
const headCap = 128

// cat appends strs to h.
func cat(h []byte, strs ...string) []byte {
	for _, s := range strs {
		h = append(h, s...)
	}
	return h
}

// catList appends strs to h, comma-separated.
func catList(h []byte, strs []string) []byte {
	for i, s := range strs {
		if i > 0 {
			h = append(h, ',')
		}
		h = append(h, s...)
	}
	return h
}

// intern returns the node whose operator and local parameters head spells,
// applied to kids: the one the table holds, or else the one build makes,
// which it gives its identity and kind. The key is the number of kids and
// their ids, eight bytes each, then head; the count fixes where the ids
// end, so no head reads as an id. Key and head are written on the stack, so
// a hit allocates nothing; a new node's key is stored as one string, and
// its head is a substring of it. build runs under the table's lock: it
// allocates the node and reads its children, nothing more.
func (t *nodeTable) intern(head []byte, kind OpKind, build func() Node, kids ...Node) Node {
	k := binary.AppendUvarint(make([]byte, 0, headCap), uint64(len(kids)))
	for _, kid := range kids {
		k = binary.BigEndian.AppendUint64(k, uint64(kid.ID()))
	}
	ids := len(k)
	k = append(k, head...)
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.m[string(k)]; ok {
		return n
	}
	key, n := string(k), build()
	s := n.identity()
	s.id, s.kind, s.head, s.kids = newNodeID(), kind, key[ids:], slices.Clone(kids)
	t.m[key] = n
	return n
}

// scanNode reads an extensional table, renaming its columns to the rule's
// variable names, and applies the context's document subset filter.
type scanNode struct {
	ident
	pred string
	cols []string
}

func newScanNode(env *Env, pred string, vars []string) *scanNode {
	h := append(catList(cat(make([]byte, 0, headCap), "scan(", pred, "->"), vars), ')')
	return env.nodes.intern(h, OpScan, func() Node { return &scanNode{pred: pred, cols: vars} }).(*scanNode)
}

func (n *scanNode) Columns() []string { return n.cols }

func (n *scanNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, _ []*compact.Table) (*compact.Table, error) {
	src, ok := ctx.Env.Tables[n.pred]
	if !ok {
		return nil, fmt.Errorf("engine: extensional table %q not bound", n.pred)
	}
	if len(src.Cols) != len(n.cols) {
		return nil, fmt.Errorf("engine: %s has %d columns, rule uses %d", n.pred, len(src.Cols), len(n.cols))
	}
	out := compact.NewTable(n.cols...)
	// Documents outside the subset and quarantined ones drop out here:
	// after a restart the evaluation sees only the survivors.
	mode := ctx.modeOf(ctx.mode.Load())
	for _, tp := range src.Tuples {
		// Tables are immutable once built, so the scan shares the
		// extensional table's rows directly.
		if mode.admits(tp) {
			out.Tuples = append(out.Tuples, tp)
		}
	}
	return out, nil
}

// fromNode implements the built-in from(x, s): for each tuple it appends a
// column s holding an expansion cell expand({contain(s1), ...,
// contain(sn)}) over the input cell's assignments (Section 4.2).
type fromNode struct {
	ident
	parent Node
	inVar  string
	outVar string
	cols   []string
}

func newFromNode(env *Env, parent Node, inVar, outVar string) *fromNode {
	h := cat(make([]byte, 0, headCap), "from[", inVar, "->", outVar, "]")
	return env.nodes.intern(h, OpFrom, func() Node {
		cols := append(append([]string(nil), parent.Columns()...), outVar)
		return &fromNode{parent: parent, inVar: inVar, outVar: outVar, cols: cols}
	}, parent).(*fromNode)
}

func (n *fromNode) Columns() []string { return n.cols }

func (n *fromNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, ins []*compact.Table) (*compact.Table, error) {
	in := ins[0]
	idx := colIndex(in.Cols, n.inVar)
	out := compact.NewTable(n.Columns()...)
	out.Tuples = make([]compact.Tuple, len(in.Tuples))
	// Rows take their cells, and the new cells their assignments, from one
	// slab each; every piece is clipped to its length.
	w, nas := len(in.Cols)+1, 0
	for _, tp := range in.Tuples {
		nas += len(tp.Cells[idx].Assigns)
	}
	cells, slab := make([]compact.Cell, len(in.Tuples)*w), make([]text.Assignment, nas)
	for ti, tp := range in.Tuples {
		row := cells[ti*w : (ti+1)*w : (ti+1)*w]
		copy(row, tp.Cells)
		src := tp.Cells[idx].Assigns
		as := slab[:len(src):len(src)]
		slab = slab[len(src):]
		for i, a := range src {
			// contain(s) for every possible value region of the input cell;
			// exact(s) inputs become contain(s) over that one span.
			as[i] = text.ContainOf(a.Span)
		}
		row[w-1] = compact.Cell{Assigns: as, Expand: true}
		out.Tuples[ti] = compact.Tuple{Cells: row, Maybe: tp.Maybe}
	}
	return out, nil
}

// crossNode is the θ-join substrate: the Cartesian product of two inputs
// (conditions are applied by later selection nodes, Section 4.1). Columns
// shared by both sides are matched with a may-equal test and projected
// once (natural-join behaviour).
type crossNode struct {
	ident
	left, right Node
	shared      []string
	cols        []string
	kept        []int // the right columns the output keeps, in order
}

func newCrossNode(env *Env, left, right Node) *crossNode {
	// The head names the shared columns, as the plan's label does: a cross
	// links to its predecessor (sameShape) only when both join on the same.
	leftCols, rightCols := left.Columns(), right.Columns()
	h, sep := cat(make([]byte, 0, headCap), "cross"), byte('[')
	for _, c := range rightCols {
		if containsStr(leftCols, c) {
			h, sep = append(append(h, sep), c...), ','
		}
	}
	if sep == ',' {
		h = append(h, ']')
	}
	return env.nodes.intern(h, OpCross, func() Node {
		n := &crossNode{left: left, right: right, cols: slices.Clone(leftCols)}
		for j, c := range rightCols {
			if containsStr(leftCols, c) {
				n.shared = append(n.shared, c)
			} else {
				n.cols, n.kept = append(n.cols, c), append(n.kept, j)
			}
		}
		return n
	}, left, right).(*crossNode)
}

func (n *crossNode) Columns() []string { return n.cols }

func (n *crossNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, in []*compact.Table) (*compact.Table, error) {
	lt, rt := in[0], in[1]
	lim := ctx.Env.limits
	// The loop runs over left tuples and keeps no memo, as σ keeps none: a
	// left tuple's matches are decided afresh on every evaluation.
	leftIdx := make([]int, 0, len(n.shared))
	rightIdx := make([]int, 0, len(n.shared))
	for _, sc := range n.shared {
		leftIdx = append(leftIdx, colIndex(lt.Cols, sc))
		rightIdx = append(rightIdx, colIndex(rt.Cols, sc))
	}
	op := tupleOp[joinOut]{minChunk: minChunkCross, count: func(o *joinOut) int { return len(o.sim) }}
	op.open = func(*statBatch) decideFn[joinOut] {
		var ms []joinMatch // the chunk's scratch, kept at exact size
		return func(ltp compact.Tuple, _ *joinOut) (joinOut, bool, bool, error) {
			var o joinOut
			ms = ms[:0]
			for j, rtp := range rt.Tuples {
				keep, sure := true, true
				for k, li := range leftIdx {
					eq, capped := cellsMayEqual(ltp.Cells[li], rtp.Cells[rightIdx[k]], lim)
					if capped {
						o.fallbacks++
					}
					if eq == noValuation {
						keep = false
						break
					}
					if eq != allValuations {
						sure = false
					}
				}
				if keep {
					ms = append(ms, joinMatch{j: j, sure: sure})
				}
			}
			o.sim = slices.Clone(ms)
			return o, false, false, nil
		}
	}
	// Rows are the left cells, then the right's kept; one slab per left tuple.
	w := len(n.cols)
	op.emit = func(dst []compact.Tuple, ltp compact.Tuple, o *joinOut) []compact.Tuple {
		slab := make([]compact.Cell, len(o.sim)*w)
		for k, m := range o.sim {
			rtp := rt.Tuples[m.j]
			cells := slab[k*w : (k+1)*w : (k+1)*w]
			nl := copy(cells, ltp.Cells)
			for x, j := range n.kept {
				cells[nl+x] = rtp.Cells[j]
			}
			dst = append(dst, compact.Tuple{Cells: cells, Maybe: ltp.Maybe || rtp.Maybe || !m.sure})
		}
		return dst
	}
	return tupleLoop(ctx, ev, dx, lt, n.cols, op)
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// satisfaction classifies how many valuations of a tuple satisfy a
// predicate: none, some, or all (possibly conservative).
type satisfaction int

const (
	noValuation satisfaction = iota
	someValuations
	allValuations
)

// cellsMayEqual tests value-set overlap of two cells with superset
// semantics: noValuation if the sets certainly do not intersect,
// allValuations if both are the same single value, someValuations
// otherwise. capped reports that enumeration hit the cell-value limit
// and the conservative someValuations answer was used.
func cellsMayEqual(a, b compact.Cell, lim limits) (sat satisfaction, capped bool) {
	av, aok := a.Singleton()
	bv, bok := b.Singleton()
	if aok && bok {
		if av.NormText() == bv.NormText() {
			return allValuations, false
		}
		return noValuation, false
	}
	if a.NumValues() > lim.MaxCellValues || b.NumValues() > lim.MaxCellValues {
		return someValuations, true // conservative
	}
	texts := map[string]bool{}
	a.Values(func(s text.Span) bool {
		texts[s.NormText()] = true
		return true
	})
	found := false
	b.Values(func(s text.Span) bool {
		if texts[s.NormText()] {
			found = true
			return false
		}
		return true
	})
	if found {
		return someValuations, false
	}
	return noValuation, false
}

// unionNode concatenates the tuples of several same-schema inputs (an IE
// predicate with several rules has union semantics). Its inputs are its
// children.
type unionNode struct{ ident }

func newUnionNode(env *Env, parts []Node) *unionNode {
	return env.nodes.intern([]byte("union"), OpUnion, func() Node { return &unionNode{} }, parts...).(*unionNode)
}

func (n *unionNode) Columns() []string { return n.kids[0].Columns() }

func (n *unionNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, in []*compact.Table) (*compact.Table, error) {
	out := compact.NewTable(n.Columns()...)
	for _, t := range in {
		// Cells are immutable once built; the union shares them.
		out.Tuples = append(out.Tuples, t.Tuples...)
	}
	return out, nil
}

// projectNode keeps/reorders/renames columns. Duplicate detection is
// ignored (Section 4.1).
type projectNode struct {
	ident
	parent  Node
	srcCols []string
	outCols []string
}

// newProjectNode returns parent itself when the projection would keep every
// column in place under its name: such a π computes nothing.
func newProjectNode(env *Env, parent Node, srcCols, outCols []string) Node {
	if pc := parent.Columns(); slices.Equal(srcCols, pc) && slices.Equal(outCols, pc) {
		return parent
	}
	h := catList(cat(make([]byte, 0, headCap), "project["), srcCols)
	h = append(catList(cat(h, "->"), outCols), ']')
	return env.nodes.intern(h, OpProject, func() Node {
		return &projectNode{parent: parent, srcCols: srcCols, outCols: outCols}
	}, parent)
}

func (n *projectNode) Columns() []string { return n.outCols }

func (n *projectNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, ins []*compact.Table) (*compact.Table, error) {
	in := ins[0]
	idx := make([]int, len(n.srcCols))
	identity := len(n.srcCols) == len(in.Cols)
	for i, c := range n.srcCols {
		idx[i] = colIndex(in.Cols, c)
		identity = identity && idx[i] == i
	}
	out := compact.NewTable(n.outCols...)
	if identity {
		// A pure rename, every column in place under a new name: only the
		// header is new. Tuples are copy-on-write everywhere downstream, so
		// the rows are the input's; the capacity is clipped so that an
		// append to either table cannot reach the other.
		out.Tuples = in.Tuples[:len(in.Tuples):len(in.Tuples)]
		return out, nil
	}
	out.Tuples = make([]compact.Tuple, len(in.Tuples))
	cells := make([]compact.Cell, len(in.Tuples)*len(idx))
	for ti, tp := range in.Tuples {
		nt := compact.Tuple{Maybe: tp.Maybe, Cells: cells[ti*len(idx) : (ti+1)*len(idx) : (ti+1)*len(idx)]}
		for i, j := range idx {
			nt.Cells[i] = tp.Cells[j]
		}
		out.Tuples[ti] = nt
	}
	return out, nil
}
