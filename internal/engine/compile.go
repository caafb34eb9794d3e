package engine

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/feature"
)

// Plan is a compiled Alog program: a tree of operators rooted at the query
// predicate's plan, built exactly as Section 4 describes — description
// rules unfolded, one fragment per rule with a ψ annotation operator at
// its root, fragments stitched together.
type Plan struct {
	Root Node
	// fold is how Compile or WithConstraint built Root.
	fold *fold
}

// Execute evaluates the plan in the given context. A pass that hit
// per-document faults quarantines the documents and returns
// ErrQuarantined internally; Execute then restarts the evaluation over
// the surviving documents (the quarantine set extends the cache-key
// marker, so nothing a fault ever touched is reused) until a pass runs
// clean. Its table carries no Degraded report: ExecuteContext attaches it.
func (p *Plan) Execute(ctx *Context) (*compact.Table, error) {
	return evalRetrying(ctx, p.Root)
}

// ExecuteContext evaluates the plan best-effort under a standard
// context: when c is cancelled or its deadline expires, operator loops
// stop at tuple/chunk granularity and the partial table built so far —
// still superset-correct over the documents that were processed — is
// returned with a Degraded report attached naming the unprocessed (and
// any quarantined) documents. Results computed after the cut are never
// cached. The binding claims the engine context's single cancellation
// slot, so concurrent ExecuteContext calls on one Context must share c.
func (p *Plan) ExecuteContext(c context.Context, ctx *Context) (*compact.Table, error) {
	ctx.BindCancel(c)
	defer ctx.Unbind()
	t, err := p.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return ctx.AttachDegraded(t), nil
}

// Explain renders the plan's EXPLAIN ANALYZE tree (see engine.Explain).
func (p *Plan) Explain(ctx *Context) (string, error) {
	return Explain(ctx, p.Root)
}

// Compile validates, unfolds, and compiles an Alog program against an
// environment. The plan keeps how it was folded, so that WithConstraint can
// edit it.
func Compile(prog *alog.Program, env *Env) (*Plan, error) {
	schema := env.Schema()
	if err := alog.Validate(prog, schema); err != nil {
		return nil, err
	}
	if err := checkFeatures(prog, schema, env); err != nil {
		return nil, err
	}
	unfolded, err := alog.Unfold(prog, schema)
	if err != nil {
		return nil, err
	}
	if err := alog.Validate(unfolded, schema); err != nil {
		return nil, fmt.Errorf("after unfolding: %w", err)
	}
	f := newFold(prog, unfolded, schema, env)
	c := &compiler{
		prog:     unfolded,
		schema:   schema,
		env:      env,
		memo:     map[string]Node{},
		visiting: map[string]bool{},
		fold:     f,
	}
	root, err := c.pred(unfolded.Query)
	if err != nil {
		return nil, err
	}
	return &Plan{Root: root, fold: f}, nil
}

// checkFeatures resolves the feature of every constraint the program states,
// written out or as sugar, in rule order, so that an unknown one fails once,
// naming the rule it is written in, before anything is unfolded or folded.
func checkFeatures(prog *alog.Program, schema *alog.Schema, env *Env) error {
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if k, ok := alog.Stated(prog, schema, l); ok {
				if err := lookupFeature(env, r.Head.Pred, k.Feature); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// lookupFeature reports an unknown feature against pred, the rule the
// constraint naming it is written in.
func lookupFeature(env *Env, pred, name string) error {
	if _, err := env.Features.Lookup(alog.CanonFeature(name)); err != nil {
		return fmt.Errorf("engine: rule %q: %w", pred, err)
	}
	return nil
}

// Run compiles and executes a program in a fresh context; the convenience
// entry point for one-shot evaluation. The table carries the Degraded
// report of any quarantined documents.
func Run(prog *alog.Program, env *Env) (*compact.Table, error) {
	plan, err := Compile(prog, env)
	if err != nil {
		return nil, err
	}
	return plan.ExecuteContext(context.Background(), NewContext(env))
}

// compiler folds rule bodies into plans. Compile runs it over a whole
// program and records the fold; WithConstraint runs it (fold nil, memo
// holding every predicate) over the suffixes an edit touches.
type compiler struct {
	prog     *alog.Program
	schema   *alog.Schema
	env      *Env
	memo     map[string]Node
	visiting map[string]bool
	fresh    int
	fold     *fold
}

func (c *compiler) freshCol() string {
	c.fresh++
	return "·tmp" + strconv.Itoa(c.fresh)
}

// pred compiles the plan for an intensional predicate: the union of its
// rule fragments.
func (c *compiler) pred(name string) (Node, error) {
	if n, ok := c.memo[name]; ok {
		return n, nil
	}
	if c.visiting[name] {
		return nil, fmt.Errorf("engine: recursive predicate %q (Xlog does not allow recursion)", name)
	}
	c.visiting[name] = true
	defer delete(c.visiting, name)

	rules := c.prog.RulesFor(name)
	if len(rules) == 0 {
		return nil, fmt.Errorf("engine: no rules for predicate %q", name)
	}
	pf := predFold{name: name}
	for _, r := range rules {
		rf, err := c.rule(r)
		if err != nil {
			return nil, err
		}
		pf.rules = append(pf.rules, rf)
	}
	out, err := c.union(name, pf.rules)
	if err != nil {
		return nil, err
	}
	pf.node = out
	c.memo[name] = out
	c.fold.preds = append(c.fold.preds, pf)
	return out, nil
}

// union is a predicate's plan: its one fragment, or the union of them all.
func (c *compiler) union(name string, rules []*ruleFold) (Node, error) {
	if len(rules) == 1 {
		return rules[0].root, nil
	}
	parts := make([]Node, len(rules))
	for i, rf := range rules {
		parts[i] = rf.root
		if len(rf.root.Columns()) != len(parts[0].Columns()) {
			return nil, fmt.Errorf("engine: rules for %q disagree on arity", name)
		}
	}
	return newUnionNode(c.env, parts), nil
}

// rule compiles one rule: ordered body -> projection to the head -> ψ.
func (c *compiler) rule(r *alog.Rule) (*ruleFold, error) {
	order, err := alog.OrderBody(c.prog, c.schema, r, nil)
	if err != nil {
		return nil, err
	}
	f := &ruleFold{rule: r, steps: make([]step, len(order)), inl: r.Inlined}
	for i, pos := range order {
		lit := &r.Body[pos]
		f.steps[i] = step{lit: lit, pos: pos, sel: alog.IsSelection(c.prog, c.schema, *lit)}
	}
	return f, c.foldFrom(f, 0)
}

// foldFrom folds f's body into its plan from step i on, over the plan
// f.steps holds below it, then projects to the head.
func (c *compiler) foldFrom(f *ruleFold, i int) error {
	var cur Node
	applied := map[string][]*feature.Cons{} // per-attribute constraints seen so far
	if i > 0 {
		// What the body below applied to an attribute the rest constrains is
		// what the last run on it below applied.
		cur = f.steps[i-1].node
		for _, s := range f.steps[i:] {
			if k, ok := alog.Stated(c.prog, c.schema, *s.lit); ok {
				if _, seen := applied[k.Attr]; !seen {
					applied[k.Attr] = appliedBelow(f.steps[:i], k.Attr)
				}
			}
		}
	}
	for ; i < len(f.steps); i++ {
		if cross, ok := cur.(*crossNode); ok && len(cross.shared) == 0 && f.steps[i].sel {
			c.fuse(f.steps[i:], cur)
		}
		s := &f.steps[i]
		// Synthetic column names count up across the whole program, so a
		// re-fold names them as Compile did at this literal. A predicate the
		// literal calls is compiled first: the count is then where the
		// literal's own columns start, as in a re-fold, which finds it built.
		if c.fold != nil {
			if s.lit.Kind == alog.LitAtom && alog.Classify(c.prog, c.schema, s.lit.Atom.Pred) == alog.ClassIntensional {
				if _, err := c.pred(s.lit.Atom.Pred); err != nil {
					return fmt.Errorf("engine: rule %q: %w", f.rule.Head.Pred, err)
				}
			}
			s.fresh = int32(c.fresh)
		} else {
			c.fresh = int(s.fresh)
		}
		var err error
		if cur, err = c.literal(cur, *s.lit, applied); err != nil {
			return fmt.Errorf("engine: rule %q: %w", f.rule.Head.Pred, err)
		}
		s.node = cur
	}
	root, err := c.head(f.rule, cur)
	f.root = root
	return err
}

// fuse orders the run of selections steps starts with, which are about to
// fold over cur, a cross product sharing no column. It puts them in body
// order — a re-fold may find them as an earlier fuse left them — and then
// moves first the earliest p-function that fuses with cur into a ⋈~
// (simJoinSides) and whose variables no selection before it reads, so that
// where the developer lists the similarity literal among them does not
// decide whether the join is blocked.
func (c *compiler) fuse(steps []step, cur Node) {
	n := 1
	for n < len(steps) && steps[n].sel {
		n++
	}
	run := steps[:n]
	slices.SortFunc(run, func(a, b step) int { return a.pos - b.pos })
	for k, s := range run {
		if s.lit.Kind != alog.LitAtom {
			continue
		}
		cross, lv, rv := simJoinSides(c.env, s.lit.Atom.Pred, s.lit.Atom.Args, cur)
		if cross != nil && !slices.ContainsFunc(run[:k], func(p step) bool { return reads(*p.lit, lv) || reads(*p.lit, rv) }) {
			copy(run[1:k+1], run[:k])
			run[0] = s
			return
		}
	}
}

// reads reports whether selection literal lit reads variable v.
func reads(lit alog.Literal, v string) bool {
	isV := func(t alog.Term) bool { return t.Kind == alog.TermVar && t.Var == v }
	switch lit.Kind {
	case alog.LitCompare:
		return isV(lit.Cmp.L) || isV(lit.Cmp.R)
	case alog.LitConstraint:
		return lit.Cons.Attr == v
	}
	return slices.ContainsFunc(lit.Atom.Args, isV)
}

// head projects a folded body to the rule's head and annotates it.
func (c *compiler) head(r *alog.Rule, cur Node) (Node, error) {
	if cur == nil {
		return nil, fmt.Errorf("engine: rule %q has an empty plan", r.Head.Pred)
	}
	// Project to the head. Head arguments must be distinct variables.
	vars := make([]string, 0, len(r.Head.Args))
	for _, t := range r.Head.Args {
		if t.Kind != alog.TermVar {
			return nil, fmt.Errorf("engine: rule %q: non-variable head argument %s is not supported", r.Head.Pred, t)
		}
		if slices.Contains(vars, t.Var) {
			return nil, fmt.Errorf("engine: rule %q: repeated head variable %q is not supported", r.Head.Pred, t.Var)
		}
		vars = append(vars, t.Var)
	}
	var n Node = newProjectNode(c.env, cur, vars, vars)
	if r.Exists || len(r.AnnAttrs) > 0 {
		n = newAnnotateNode(c.env, n, r.Exists, r.AnnAttrs)
	}
	return n, nil
}

// literal extends the current plan with one body literal.
func (c *compiler) literal(cur Node, lit alog.Literal, applied map[string][]*feature.Cons) (Node, error) {
	switch lit.Kind {
	case alog.LitCompare:
		if cur == nil {
			return nil, fmt.Errorf("comparison %q cannot start a rule body", lit.Cmp)
		}
		return newCompareNode(c.env, cur, lit.Cmp), nil

	case alog.LitConstraint:
		return c.constrain(cur, lit.Cons, applied)

	default:
		return c.atom(cur, lit.Atom, applied)
	}
}

// constrain extends the current plan with a domain constraint: the next
// stage of the attribute's run when the plan ends in it. This is where a
// constraint is resolved, once: its feature looked up and the pair interned
// in the Env's memo, whose handle the plan carries.
func (c *compiler) constrain(cur Node, k alog.Constraint, applied map[string][]*feature.Cons) (Node, error) {
	if cur == nil {
		return nil, fmt.Errorf("constraint %q cannot start a rule body", k)
	}
	f, err := c.env.Features.Lookup(alog.CanonFeature(k.Feature))
	if err != nil {
		return nil, err
	}
	applied[k.Attr] = append(applied[k.Attr], c.env.FeatureMemo.Intern(f, k.Value))
	return newConstraintNode(c.env, cur, k.Attr, applied[k.Attr]), nil
}

// atom extends the plan with a predicate atom.
func (c *compiler) atom(cur Node, a alog.Atom, applied map[string][]*feature.Cons) (Node, error) {
	switch alog.Classify(c.prog, c.schema, a.Pred) {
	case alog.ClassFrom:
		if len(a.Args) != 2 || a.Args[0].Kind != alog.TermVar || a.Args[1].Kind != alog.TermVar {
			return nil, fmt.Errorf("from expects two variable arguments, got %s", a)
		}
		if cur == nil {
			return nil, fmt.Errorf("from(%s, %s) cannot start a rule body", a.Args[0], a.Args[1])
		}
		if containsStr(cur.Columns(), a.Args[1].Var) {
			return nil, fmt.Errorf("from output variable %q is already bound", a.Args[1].Var)
		}
		return newFromNode(c.env, cur, a.Args[0].Var, a.Args[1].Var), nil

	case alog.ClassExtensional:
		n, err := c.adaptColumns(nil, a, true)
		if err != nil {
			return nil, err
		}
		return c.combine(cur, n), nil

	case alog.ClassIntensional:
		sub, err := c.pred(a.Pred)
		if err != nil {
			return nil, err
		}
		n, err := c.adaptColumns(sub, a, false)
		if err != nil {
			return nil, err
		}
		return c.combine(cur, n), nil

	case alog.ClassFunction:
		if cur == nil {
			return nil, fmt.Errorf("p-function %q cannot start a rule body", a.Pred)
		}
		if cross, lv, rv := simJoinSides(c.env, a.Pred, a.Args, cur); cross != nil {
			return newSimJoinNode(c.env, cross.left, cross.right, a.Pred, lv, rv), nil
		}
		return newFuncNode(c.env, cur, a.Pred, a.Args), nil

	case alog.ClassProcedure:
		if cur == nil {
			return nil, fmt.Errorf("procedure %q cannot start a rule body", a.Pred)
		}
		if len(a.Args) < 1 || a.Args[0].Kind != alog.TermVar {
			return nil, fmt.Errorf("procedure %s needs a variable input as its first argument", a.Pred)
		}
		var outs []string
		for _, t := range a.Args[1:] {
			if t.Kind != alog.TermVar {
				return nil, fmt.Errorf("procedure %s: constant output arguments are not supported", a.Pred)
			}
			if containsStr(cur.Columns(), t.Var) {
				return nil, fmt.Errorf("procedure %s: output variable %q is already bound", a.Pred, t.Var)
			}
			outs = append(outs, t.Var)
		}
		return newProcNode(c.env, cur, a.Pred, a.Args[0].Var, outs), nil

	case alog.ClassIE:
		return nil, fmt.Errorf("IE predicate %q was not unfolded (missing description rule input?)", a.Pred)

	default:
		if sc, ok := alog.SugarConstraint(a); ok {
			return c.constrain(cur, sc, applied)
		}
		return nil, fmt.Errorf("unknown predicate %q", a.Pred)
	}
}

// adaptColumns renames a sub-plan's positional outputs to the calling
// atom's variable names and filters on constant arguments. For scans
// (fillScan), the scan node itself is rebuilt with the target column
// names.
func (c *compiler) adaptColumns(sub Node, a alog.Atom, fillScan bool) (Node, error) {
	names := make([]string, len(a.Args))
	type constFilter struct {
		col  string
		term alog.Term
	}
	var filters []constFilter
	seen := map[string]bool{}
	synthetic := map[string]bool{}
	var dups []alog.Compare
	for i, t := range a.Args {
		switch t.Kind {
		case alog.TermVar:
			if seen[t.Var] {
				// Repeated variable: bind a fresh column and add an
				// equality filter.
				fresh := c.freshCol()
				names[i] = fresh
				synthetic[fresh] = true
				dups = append(dups, alog.Compare{Op: alog.OpEQ, L: alog.Variable(t.Var), R: alog.Variable(fresh)})
			} else {
				seen[t.Var] = true
				names[i] = t.Var
			}
		default:
			fresh := c.freshCol()
			names[i] = fresh
			synthetic[fresh] = true
			filters = append(filters, constFilter{col: fresh, term: t})
		}
	}

	var n Node
	if fillScan {
		n = newScanNode(c.env, a.Pred, names)
	} else {
		if len(sub.Columns()) != len(names) {
			return nil, fmt.Errorf("predicate %q used with arity %d but defined with arity %d",
				a.Pred, len(names), len(sub.Columns()))
		}
		n = newProjectNode(c.env, sub, sub.Columns(), names)
	}
	for _, f := range filters {
		n = newCompareNode(c.env, n, alog.Compare{Op: alog.OpEQ, L: alog.Variable(f.col), R: f.term})
	}
	for _, d := range dups {
		n = newCompareNode(c.env, n, d)
	}
	// Project away the synthetic columns.
	if len(synthetic) > 0 {
		var keep []string
		for _, col := range names {
			if !synthetic[col] {
				keep = append(keep, col)
			}
		}
		n = newProjectNode(c.env, n, keep, keep)
	}
	return n, nil
}

// simJoinSides returns the cross product p-function fname(args) fuses with
// into a token-blocked simjoin, and its variables as (left, right): the
// function declares a token similarity, and is binary over one variable of
// each side of a cross sharing no column. cross is nil when they do not
// fuse.
func simJoinSides(env *Env, fname string, args []alog.Term, base Node) (cross *crossNode, lv, rv string) {
	cross, ok := base.(*crossNode)
	if env.Funcs[fname].Token == nil || len(args) != 2 || !ok || len(cross.shared) > 0 ||
		args[0].Kind != alog.TermVar || args[1].Kind != alog.TermVar {
		return nil, "", ""
	}
	lcols, rcols := cross.left.Columns(), cross.right.Columns()
	switch v1, v2 := args[0].Var, args[1].Var; {
	case containsStr(lcols, v1) && containsStr(rcols, v2):
		return cross, v1, v2
	case containsStr(lcols, v2) && containsStr(rcols, v1):
		return cross, v2, v1
	}
	return nil, "", ""
}

// combine crosses the new node with the current plan (natural join on
// shared columns).
func (c *compiler) combine(cur, n Node) Node {
	if cur == nil {
		return n
	}
	return newCrossNode(c.env, cur, n)
}

// appliedBelow returns every constraint the steps' plans hold on attr: the
// applied list of the last run on it, which an append copies.
func appliedBelow(steps []step, attr string) []*feature.Cons {
	for j := len(steps) - 1; j >= 0; j-- {
		if cn, ok := steps[j].node.(*constraintNode); ok && cn.attr == attr {
			return cn.prior[:len(cn.prior)+len(cn.cons)]
		}
	}
	return nil
}
