package engine

import (
	"fmt"
	"slices"
	"strings"

	"iflex/internal/alog"
)

// This file is the plan optimizer: a rewrite pass that runs
// between Compile and Eval. Every rewrite preserves the result byte for
// byte — not just set-equal: the compact tables (tuple order, cell
// replacements, Maybe flags) of an optimized plan are identical to the
// unoptimized plan's, so transcripts, convergence signals, and the
// differential suites cannot tell the two apart except by wall time.
//
// Rule catalogue (see DESIGN.md §13 for the per-rule argument):
//
//   - fuse-simjoin: a blockable similarity p-function σ~ sitting above a
//     selection chain over a shared-column-free cross product is hoisted
//     down past column-disjoint selections and fused into the
//     token-blocked simjoin. The compiler's syntactic fusion only fires
//     when σ~ is directly adjacent to the cross; this rule makes plan
//     quality independent of the order the developer listed body
//     literals in.
//   - pushdown: a unary selection is sunk below a cross/simjoin into the
//     side that binds all its columns (when disjoint from the join
//     columns), and below from/proc operators that only add columns it
//     does not read.
//   - reorder-conjuncts: adjacent selections over pairwise-disjoint
//     column sets are reordered cheapest-rank-first (comparisons before
//     constraints before opaque p-functions). Same-rank and overlapping
//     selections keep their original relative order, which keeps
//     constraint prior lists valid.
//
// Sharing is not a rule: every node a rewrite builds goes through the
// constructors, which intern it (nodes.go), so a rewritten plan shares
// each subtree it has in common with the plan it came from, with the
// session's other trial plans and with earlier iterations' plans.
//
// Determinism contract: every rule fires wherever it is legal, and
// legality reads the plan's structure only — never table sizes, timings
// or cardinalities — so a program has one optimized shape at any worker
// count, execution history or delta setting.

// RuleFiring records one rewrite decision for explain/bench rendering.
type RuleFiring struct {
	Rule   string `json:"rule"`   // fuse-simjoin | pushdown | reorder-conjuncts
	Node   string `json:"node"`   // operator label of the rewritten node
	ID     NodeID `json:"-"`      // the node of the final plan the firing attaches to
	Detail string `json:"detail"` // human-readable what/why
}

// OptInfo reports what the optimizer did to a plan.
type OptInfo struct {
	// Fired lists every rewrite decision in deterministic plan order.
	Fired []RuleFiring
}

// rulesFor returns the rule labels attached to a node (for explain).
func (o *OptInfo) rulesFor(id NodeID) []string {
	if o == nil {
		return nil
	}
	var out []string
	for _, f := range o.Fired {
		if f.ID == id {
			out = append(out, f.Rule)
		}
	}
	return out
}

// Summary renders a one-line rule tally, e.g.
// "3 rewrites (fuse-simjoin=1 pushdown=2)".
func (o *OptInfo) Summary() string {
	if o == nil {
		return "off"
	}
	counts := map[string]int{}
	for _, f := range o.Fired {
		counts[f.Rule]++
	}
	var parts []string
	for _, r := range []string{"fuse-simjoin", "pushdown", "reorder-conjuncts"} {
		if counts[r] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", r, counts[r]))
		}
	}
	s := fmt.Sprintf("%d rewrites", len(o.Fired))
	if len(parts) > 0 {
		s += " (" + strings.Join(parts, " ") + ")"
	}
	return s
}

// OptOptions is empty: the optimizer has nothing to configure. The
// parameter stays because benchmark/ names it.
type OptOptions struct{}

// OptimizePlan rewrites a compiled plan with the semantics-preserving
// rule catalogue above and returns a new Plan carrying the rewritten
// root and an OptInfo report. The input plan is never mutated (nodes are
// immutable); unchanged subtrees are the same nodes, so an optimized
// plan delta-links against an unoptimized predecessor (and vice versa)
// exactly as well as the overlap of their shapes allows.
func OptimizePlan(p *Plan, env *Env, _ OptOptions) *Plan {
	o := &optimizer{env: env, info: &OptInfo{}, done: map[Node]Node{}}
	return &Plan{Root: o.rewrite(p.Root), Opt: o.info}
}

type optimizer struct {
	env  *Env
	info *OptInfo
	// done maps original nodes to their rewritten versions, so a shared
	// subtree is rewritten once.
	done map[Node]Node
}

// selInfo is one unary selection of a chain, carried by its original
// node plus the precomputed column set and rank.
type selInfo struct {
	node     Node
	involved []string
	rank     int
}

// isSelection reports whether n is a unary selection operator.
func isSelection(n Node) bool {
	switch n.(type) {
	case *compareNode, *funcNode, *constraintNode:
		return true
	}
	return false
}

// selParent returns a selection node's input.
func selParent(n Node) Node { return n.Children()[0] }

// selOf extracts the chain metadata of a selection node.
func selOf(n Node) selInfo {
	s := selInfo{node: n}
	switch t := n.(type) {
	case *compareNode:
		vars := 0
		for _, term := range []alog.Term{t.cmp.L, t.cmp.R} {
			if term.Kind == alog.TermVar {
				s.involved = append(s.involved, term.Var)
				vars++
			}
		}
		if vars <= 1 {
			s.rank = 0 // variable-vs-constant: cheapest
		} else {
			s.rank = 1 // variable-vs-variable odometer
		}
	case *constraintNode:
		s.involved = []string{t.attr()}
		s.rank = 2 // feature Verify/Refine
	case *funcNode:
		for _, term := range t.args {
			if term.Kind == alog.TermVar {
				s.involved = append(s.involved, term.Var)
			}
		}
		s.rank = 3 // opaque p-function: most expensive
	}
	return s
}

// disjointStr reports whether two column-name sets share no element.
func disjointStr(a, b []string) bool {
	for _, x := range a {
		if containsStr(b, x) {
			return false
		}
	}
	return true
}

// subsetStr reports whether every element of a appears in b.
func subsetStr(a, b []string) bool {
	for _, x := range a {
		if !containsStr(b, x) {
			return false
		}
	}
	return true
}

// rewrite returns the optimized version of a subtree (memoised, so
// shared subtrees rewrite once and stay shared).
func (o *optimizer) rewrite(n Node) Node {
	if v, ok := o.done[n]; ok {
		return v
	}
	var out Node
	if isSelection(n) {
		out = o.rewriteChain(n)
	} else {
		out = o.rebuild(n)
	}
	o.done[n] = out
	return out
}

// rebuild rewrites a non-selection node's children and reconstructs the
// node when a child changed.
func (o *optimizer) rebuild(n Node) Node {
	switch t := n.(type) {
	case *scanNode:
		return n
	case *fromNode:
		if p := o.rewrite(t.parent); p != t.parent {
			return newFromNode(o.env, p, t.inVar, t.outVar)
		}
	case *procNode:
		if p := o.rewrite(t.parent); p != t.parent {
			return newProcNode(o.env, p, t.pname, t.inVar, t.outVars)
		}
	case *projectNode:
		if p := o.rewrite(t.parent); p != t.parent {
			return newProjectNode(o.env, p, t.srcCols, t.outCols)
		}
	case *annotateNode:
		if p := o.rewrite(t.parent); p != t.parent {
			return newAnnotateNode(o.env, p, t.exists, t.annotate)
		}
	case *crossNode:
		l, r := o.rewrite(t.left), o.rewrite(t.right)
		if l != t.left || r != t.right {
			return newCrossNode(o.env, l, r)
		}
	case *simJoinNode:
		l, r := o.rewrite(t.left), o.rewrite(t.right)
		if l != t.left || r != t.right {
			return newSimJoinNode(o.env, l, r, t.fname, t.leftVar, t.rightVar)
		}
	case *unionNode:
		parts := make([]Node, len(t.parts))
		changed := false
		for i, p := range t.parts {
			parts[i] = o.rewrite(p)
			changed = changed || parts[i] != p
		}
		if changed {
			return newUnionNode(o.env, parts)
		}
	}
	return n
}

// rewriteChain optimizes a maximal chain of unary selections: fusion
// rescue, pushdown into the base, and conjunct reordering, in that
// order. top is the chain's uppermost selection.
func (o *optimizer) rewriteChain(top Node) Node {
	// Collect the chain top-down, then flip to bottom-up (sels[0] is the
	// selection closest to the base — the first one evaluated).
	var sels []selInfo
	cur := top
	for isSelection(cur) {
		sels = append(sels, selOf(cur))
		cur = selParent(cur)
	}
	for i, j := 0, len(sels)-1; i < j; i, j = i+1, j-1 {
		sels[i], sels[j] = sels[j], sels[i]
	}
	origBase := cur
	base := o.rewrite(origBase)
	changed := base != origBase

	// fuse-simjoin: hoist a fusible similarity selection down onto the
	// shared-free cross and fuse. The hoist commutes byte for byte only past
	// selections column-disjoint from the function's variables.
	for i := 0; i < len(sels); {
		fn, ok := sels[i].node.(*funcNode)
		var cross *crossNode
		var lv, rv string
		if ok {
			cross, lv, rv = simJoinSides(o.env, fn.fname, fn.args, base)
		}
		if cross == nil || slices.ContainsFunc(sels[:i], func(s selInfo) bool { return !disjointStr(s.involved, []string{lv, rv}) }) {
			i++
			continue
		}
		fused := newSimJoinNode(o.env, cross.left, cross.right, fn.fname, lv, rv)
		o.info.Fired = append(o.info.Fired, RuleFiring{
			Rule: "fuse-simjoin", Node: opName(fused), ID: fused.ID(),
			Detail: fmt.Sprintf("%s(%s,%s) hoisted past %d selection(s) onto %s and fused",
				fn.fname, lv, rv, i, opName(cross)),
		})
		base = fused
		sels = append(sels[:i], sels[i+1:]...)
		changed = true
		// Restart: removing the func may expose another fusible one
		// (the base is a simjoin now, so only deeper chains fuse more).
		i = 0
	}

	// pushdown: sink each selection into the base when every selection
	// that stays between it and the base commutes with it.
	var kept []selInfo
	for _, s := range sels {
		commutes := true
		for _, k := range kept {
			if !disjointStr(s.involved, k.involved) {
				commutes = false
				break
			}
		}
		if commutes {
			if nb, moved := o.sink(s, base); nb != nil {
				o.info.Fired = append(o.info.Fired, RuleFiring{
					Rule: "pushdown", Node: opName(moved), ID: moved.ID(),
					Detail: fmt.Sprintf("%s sunk below %s", opName(s.node), opName(base)),
				})
				base = nb
				changed = true
				continue
			}
		}
		kept = append(kept, s)
	}

	// reorder-conjuncts: bubble cheaper-rank selections toward the base,
	// swapping only strictly-improving, column-disjoint adjacent pairs
	// (stable otherwise — constraint prior lists rely on the same-attr
	// relative order never changing).
	reordered := false
	for swapped := true; swapped; {
		swapped = false
		for j := 0; j+1 < len(kept); j++ {
			a, b := kept[j], kept[j+1]
			if b.rank < a.rank && disjointStr(a.involved, b.involved) {
				kept[j], kept[j+1] = b, a
				swapped, reordered, changed = true, true, true
			}
		}
	}

	if !changed {
		return top
	}
	node := base
	for _, s := range kept {
		node = o.rebuildSel(s, node)
	}
	if reordered {
		o.info.Fired = append(o.info.Fired, RuleFiring{
			Rule: "reorder-conjuncts", Node: opName(node), ID: node.ID(),
			Detail: fmt.Sprintf("%d conjuncts ordered cheapest-rank-first", len(kept)),
		})
	}
	return node
}

// sink tries to place a selection below target, descending recursively
// through joins and column-adding unary operators; it returns the
// rebuilt target plus the relocated selection node, or (nil, nil) when
// no legal position strictly below target exists. Firings recorded on
// target (a fused ⋈~ a selection now sinks into) follow it onto the node
// that replaces it, so their tags sit on a node of the final plan.
func (o *optimizer) sink(s selInfo, target Node) (Node, Node) {
	rebuilt, sel := o.sinkBelow(s, target)
	if rebuilt != nil {
		for i := range o.info.Fired {
			if o.info.Fired[i].ID == target.ID() {
				o.info.Fired[i].ID = rebuilt.ID()
			}
		}
	}
	return rebuilt, sel
}

// sinkBelow is sink's case analysis. Projections, unions, and
// annotations are never crossed: in compiled plans they only occur
// at rule-fragment and predicate boundaries, and predicate sub-plans are
// shared across callers — pushing one caller's selection inside would
// change the shared intermediate (and the session's convergence signal).
func (o *optimizer) sinkBelow(s selInfo, target Node) (Node, Node) {
	switch t := target.(type) {
	case *crossNode:
		if !disjointStr(s.involved, t.shared) {
			return nil, nil
		}
		if subsetStr(s.involved, t.left.Columns()) {
			nl, sel := o.sinkOrWrap(s, t.left)
			return newCrossNode(o.env, nl, t.right), sel
		}
		if subsetStr(s.involved, t.right.Columns()) {
			nr, sel := o.sinkOrWrap(s, t.right)
			return newCrossNode(o.env, t.left, nr), sel
		}
	case *simJoinNode:
		if subsetStr(s.involved, t.left.Columns()) && !containsStr(s.involved, t.leftVar) {
			nl, sel := o.sinkOrWrap(s, t.left)
			return newSimJoinNode(o.env, nl, t.right, t.fname, t.leftVar, t.rightVar), sel
		}
		if subsetStr(s.involved, t.right.Columns()) && !containsStr(s.involved, t.rightVar) {
			nr, sel := o.sinkOrWrap(s, t.right)
			return newSimJoinNode(o.env, t.left, nr, t.fname, t.leftVar, t.rightVar), sel
		}
	case *fromNode:
		if !containsStr(s.involved, t.outVar) {
			np, sel := o.sinkOrWrap(s, t.parent)
			return newFromNode(o.env, np, t.inVar, t.outVar), sel
		}
	case *procNode:
		if disjointStr(s.involved, t.outVars) {
			np, sel := o.sinkOrWrap(s, t.parent)
			return newProcNode(o.env, np, t.pname, t.inVar, t.outVars), sel
		}
	}
	return nil, nil
}

// sinkOrWrap sinks the selection deeper when possible, otherwise places
// it directly above target.
func (o *optimizer) sinkOrWrap(s selInfo, target Node) (Node, Node) {
	if nb, sel := o.sink(s, target); nb != nil {
		return nb, sel
	}
	sel := o.rebuildSel(s, target)
	return sel, sel
}

// rebuildSel reconstructs a selection node over a new input, carrying
// its parameters (constraint prior lists included) verbatim. A constraint
// run is rebuilt stage by stage through its constructor, which extends
// the new input when that is the run's lower part.
func (o *optimizer) rebuildSel(s selInfo, parent Node) Node {
	switch t := s.node.(type) {
	case *compareNode:
		if t.parent == parent {
			return t
		}
		return newCompareNode(o.env, parent, t.cmp)
	case *funcNode:
		if t.parent == parent {
			return t
		}
		return newFuncNode(o.env, parent, t.fname, t.args)
	case *constraintNode:
		if t.parent == parent {
			return t
		}
		all := t.applied()
		for i, k := range t.cons {
			parent = newConstraintNode(o.env, parent, k, all[:len(t.prior)+i])
		}
		return parent
	}
	return s.node
}
