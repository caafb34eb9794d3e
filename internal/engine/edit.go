package engine

import (
	"fmt"
	"slices"

	"iflex/internal/alog"
)

// fold is how Compile built a plan: every rule fragment's body in
// evaluation order with the plan after each literal. WithConstraint edits a
// plan by re-folding the fragments a constraint touches from the literal it
// is placed before, through the same constructors Compile calls, so the
// plan it returns is the node a recompile would build.
type fold struct {
	env *Env
	// prog is the unfolded program Compile ran on. It classifies predicates
	// (an edit adds constraints, never heads); its bodies are not read.
	prog   *alog.Program
	schema *alog.Schema
	// attrs holds the attributes AddConstraint accepts; pinned, those some
	// call site binds to a constant, which Unfold refuses to constrain.
	attrs, pinned map[alog.AttrRef]bool
	// preds in the order Compile finished them, so that a predicate comes
	// after every predicate its rules call.
	preds []predFold
}

type predFold struct {
	name  string
	rules []*ruleFold
	node  Node
}

// ruleFold is one rule fragment.
type ruleFold struct {
	rule  *alog.Rule    // the unfolded rule, read for its head
	steps []step        // the body in evaluation order
	inl   []alog.Inline // rule.Inlined, with End moved past the constraints added since
	root  Node          // π and ψ over the body's plan
}

// step is one literal of a fragment: its index in the body, whether it is a
// selection (alog.IsSelection), the plan after it, and how many synthetic
// columns Compile had named when it reached it.
type step struct {
	lit   *alog.Literal
	pos   int
	node  Node
	fresh int32
	sel   bool
}

func newFold(prog, unfolded *alog.Program, schema *alog.Schema, env *Env) *fold {
	f := &fold{env: env, prog: unfolded, schema: schema, attrs: map[alog.AttrRef]bool{}, pinned: map[alog.AttrRef]bool{}}
	for _, r := range prog.Rules {
		if r.IsDescription(nil) {
			for _, t := range r.Head.Args {
				if t.Kind == alog.TermVar {
					f.attrs[alog.AttrRef{Pred: r.Head.Pred, Var: t.Var}] = true
				}
			}
		}
	}
	for _, r := range unfolded.Rules {
		for _, in := range r.Inlined {
			for v, t := range in.Args {
				if t.Kind != alog.TermVar {
					f.pinned[alog.AttrRef{Pred: in.Pred, Var: v}] = true
				}
			}
		}
	}
	return f
}

// WithConstraint returns the plan Compile builds for the program p was
// compiled from once AddConstraint(attr, featureName, value) has extended
// it, and builds it by editing p. Every fragment that inlined a description
// rule of attr.Pred exporting attr.Var gets the constraint where OrderBody
// would place it and is re-folded from there; a fragment calling a
// predicate whose plan changed is re-folded from the call. Everything below
// an edit is p's own nodes, and the constructors intern what is built, so
// the root is the node Compile would return. The errors are the ones
// AddConstraint and Compile would report. p is not changed, and concurrent
// calls are safe.
func (p *Plan) WithConstraint(attr alog.AttrRef, featureName, value string) (*Plan, error) {
	f := p.fold
	k := alog.Constraint{Feature: featureName, Attr: attr.Var, Value: value}
	if !f.attrs[attr] {
		return nil, fmt.Errorf("alog: no description rule for attribute %s", attr)
	}
	// Compile resolves features before it unfolds: the first rule it finds
	// the unknown one in is the first one AddConstraint extended.
	if err := lookupFeature(f.env, attr.Pred, featureName); err != nil {
		return nil, err
	}
	if f.pinned[attr] {
		return nil, fmt.Errorf("alog: constraint %s applies to %q which unifies with a constant", k, k.Attr)
	}
	c := &compiler{prog: f.prog, schema: f.schema, env: f.env, memo: make(map[string]Node, len(f.preds))}

	nf := *f
	nf.preds = slices.Clone(f.preds)
	var moved []string // predicates whose plan changed
	for i := range nf.preds {
		pf := &nf.preds[i]
		cloned := false
		for j, rf := range pf.rules {
			from := len(rf.steps) + 1 // past the end: nothing to re-fold
			for q := range rf.inl {
				if v, ok := rf.target(q, attr); ok {
					// Placed against the fragment as the constraints inserted
					// before this one left it.
					at, err := rf.place(v, q)
					if err != nil {
						return nil, err
					}
					kq := k
					kq.Attr = v
					rf, from = rf.insert(at, q, &alog.Literal{Kind: alog.LitConstraint, Cons: kq}), min(from, at)
				}
			}
			for l, s := range rf.steps[:min(from, len(rf.steps))] {
				if s.lit.Kind == alog.LitAtom && slices.Contains(moved, s.lit.Atom.Pred) {
					from = l
					break
				}
			}
			if from > len(rf.steps) {
				continue
			}
			if rf == pf.rules[j] {
				cp := *rf
				cp.steps = slices.Clone(rf.steps)
				rf = &cp
			}
			if err := c.foldFrom(rf, from); err != nil {
				return nil, err
			}
			if !cloned {
				pf.rules, cloned = slices.Clone(pf.rules), true
			}
			pf.rules[j] = rf
		}
		if cloned {
			node, err := c.union(pf.name, pf.rules)
			if err != nil {
				return nil, err
			}
			if node != pf.node {
				pf.node, moved = node, append(moved, pf.name)
			}
		}
		c.memo[pf.name] = pf.node
	}
	return &Plan{Root: c.memo[f.prog.Query], fold: &nf}, nil
}

// target returns the variable a constraint on attr is on where it lands in
// inlined rule q, and whether AddConstraint extends that rule at all.
func (rf *ruleFold) target(q int, attr alog.AttrRef) (string, bool) {
	in := rf.inl[q]
	t, ok := in.Args[attr.Var]
	return t.Var, ok && in.Pred == attr.Pred
}

// place returns the step before which OrderBody puts a constraint on v
// appended to inlined rule q. A selection binds nothing, so it goes among
// the selections that follow the literal binding v, in body order. Where
// fuse moved a later selection to the front, the constraint lands behind
// it if it follows it in body order and at the front otherwise, and the
// re-fold fuses from there.
func (rf *ruleFold) place(v string, q int) (int, error) {
	at := 0
	for at < len(rf.steps) && !containsStr(rf.steps[at].node.Columns(), v) {
		at++
	}
	if at == len(rf.steps) {
		return 0, fmt.Errorf("engine: rule %q never binds %s", rf.rule.Head.Pred, v)
	}
	for at++; at < len(rf.steps) && rf.steps[at].pos < rf.inl[q].End && rf.steps[at].sel; at++ {
	}
	return at, nil
}

// insert returns a copy of rf with lit, a constraint appended to inlined
// rule q, placed before step at: it lands at the end of that rule's body,
// so the body indexes from there on move up by one, and so does the end of
// every inlined body that holds it — those past it, and those ending with
// it that were inlined no later (q itself and the rules enclosing it).
func (rf *ruleFold) insert(at, q int, lit *alog.Literal) *ruleFold {
	end := rf.inl[q].End
	// A selection keeps its input's columns: until the re-fold replaces it,
	// the node below stands in for the new step's.
	s := step{lit: lit, pos: end, sel: true, node: rf.steps[at-1].node}
	if at < len(rf.steps) {
		s.fresh = rf.steps[at].fresh
	}
	nf := *rf
	nf.steps = make([]step, len(rf.steps)+1)
	copy(nf.steps, rf.steps[:at])
	nf.steps[at] = s
	copy(nf.steps[at+1:], rf.steps[at:])
	for i := range nf.steps {
		if i != at && nf.steps[i].pos >= end {
			nf.steps[i].pos++
		}
	}
	nf.inl = slices.Clone(rf.inl)
	for i, in := range nf.inl {
		if in.End > end || in.End == end && i <= q {
			nf.inl[i].End++
		}
	}
	return &nf
}
