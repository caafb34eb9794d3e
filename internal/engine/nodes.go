package engine

import (
	"fmt"
	"strconv"
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
// nodeTable.put: the id, and what Signature renders — head, the operator
// with its local parameters, applied to kids.
type ident struct {
	id   NodeID
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

// nodeKey is what a node is interned on: its operator and local parameters
// and the identities of the nodes they apply to (a union's, there being any
// number of them, written out in rest).
type nodeKey struct {
	head string
	l, r NodeID
	rest string
}

// nodeTable interns the nodes built against one Env. Every constructor
// asks it first and builds only what it does not have, so structural
// equality is decided once, where a node is made, and is pointer equality
// from then on — within a plan, across the trial plans of a session and
// across its iterations.
type nodeTable struct {
	mu sync.Mutex
	m  map[nodeKey]Node
}

func (t *nodeTable) get(k nodeKey) Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

// put gives n its identity and publishes it under k, unless a concurrent
// constructor got there first: then that node is the one returned.
func (t *nodeTable) put(k nodeKey, n interface {
	Node
	identity() *ident
}, kids ...Node) Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.m[k]; ok {
		return old
	}
	s := n.identity()
	s.id, s.head, s.kids = newNodeID(), k.head, kids
	t.m[k] = n
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
	k := nodeKey{head: "scan(" + pred + "->" + strings.Join(vars, ",") + ")"}
	if n := env.nodes.get(k); n != nil {
		return n.(*scanNode)
	}
	return env.nodes.put(k, &scanNode{pred: pred, cols: vars}).(*scanNode)
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
	k := nodeKey{head: "from[" + inVar + "->" + outVar + "]", l: parent.ID()}
	if n := env.nodes.get(k); n != nil {
		return n.(*fromNode)
	}
	cols := append(append([]string(nil), parent.Columns()...), outVar)
	return env.nodes.put(k, &fromNode{parent: parent, inVar: inVar, outVar: outVar, cols: cols}, parent).(*fromNode)
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
}

func newCrossNode(env *Env, left, right Node) *crossNode {
	k := nodeKey{head: "cross", l: left.ID(), r: right.ID()}
	if n := env.nodes.get(k); n != nil {
		return n.(*crossNode)
	}
	leftCols := left.Columns()
	rightCols := right.Columns()
	n := &crossNode{left: left, right: right}
	n.cols = append(n.cols, leftCols...)
	seen := map[string]bool{}
	for _, c := range leftCols {
		seen[c] = true
	}
	for _, c := range rightCols {
		if seen[c] {
			n.shared = append(n.shared, c)
		} else {
			n.cols = append(n.cols, c)
		}
	}
	return env.nodes.put(k, n, left, right).(*crossNode)
}

func (n *crossNode) Columns() []string { return n.cols }

func (n *crossNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, in []*compact.Table) (*compact.Table, error) {
	lt, rt := in[0], in[1]
	lim := ctx.Env.Limits
	// The loop runs over left tuples. The memo is per left tuple too, keyed
	// on the left shared-column cells and pinned to the right table by a
	// content fingerprint of its shared columns; emit rebuilds each output
	// row from the current tuples.
	leftIdx := make([]int, 0, len(n.shared))
	rightIdx := make([]int, 0, len(n.shared))
	for _, sc := range n.shared {
		leftIdx = append(leftIdx, colIndex(lt.Cols, sc))
		rightIdx = append(rightIdx, colIndex(rt.Cols, sc))
	}
	op := tupleOp{cols: leftIdx, right: rt, rightCols: rightIdx, minChunk: minChunkCross}
	op.open = func(*statBatch) decideFn {
		return func(ltp compact.Tuple, old *deltaOut) (deltaOut, bool, bool, error) {
			if old != nil {
				return *old, true, false, nil
			}
			var o deltaOut
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
					o.sim = append(o.sim, joinMatch{j: j, sure: sure})
				}
			}
			return o, false, false, nil
		}
	}
	op.emit = func(dst []compact.Tuple, ltp compact.Tuple, o *deltaOut) []compact.Tuple {
		for _, m := range o.sim {
			rtp := rt.Tuples[m.j]
			nt := ltp.Copy()
			for j, c := range rt.Cols {
				if !containsStr(n.shared, c) {
					nt.Cells = append(nt.Cells, rtp.Cells[j])
				}
			}
			nt.Maybe = ltp.Maybe || rtp.Maybe || !m.sure
			dst = append(dst, nt)
		}
		return dst
	}
	return ctx.tupleLoop(ev, dx, lt, n.cols, op)
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
func cellsMayEqual(a, b compact.Cell, lim Limits) (sat satisfaction, capped bool) {
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
// predicate with several rules has union semantics).
type unionNode struct {
	ident
	parts []Node
}

func newUnionNode(env *Env, parts []Node) *unionNode {
	ids := make([]byte, 0, 8*len(parts))
	for _, p := range parts {
		ids = strconv.AppendUint(append(ids, ';'), uint64(p.ID()), 36)
	}
	k := nodeKey{head: "union", rest: string(ids)}
	if n := env.nodes.get(k); n != nil {
		return n.(*unionNode)
	}
	return env.nodes.put(k, &unionNode{parts: parts}, parts...).(*unionNode)
}

func (n *unionNode) Columns() []string { return n.parts[0].Columns() }

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

func newProjectNode(env *Env, parent Node, srcCols, outCols []string) *projectNode {
	k := nodeKey{head: "project[" + strings.Join(srcCols, ",") + "->" + strings.Join(outCols, ",") + "]", l: parent.ID()}
	if n := env.nodes.get(k); n != nil {
		return n.(*projectNode)
	}
	return env.nodes.put(k, &projectNode{parent: parent, srcCols: srcCols, outCols: outCols}, parent).(*projectNode)
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
		// Every column onto itself (the π around each ψ): only the header is
		// new. Tuples are copy-on-write everywhere downstream, so the rows
		// are the input's; the capacity is clipped so that an append to
		// either table cannot reach the other.
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
