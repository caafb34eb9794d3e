package engine

import (
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/feature"
	"iflex/internal/markup"
	"iflex/internal/text"
)

func TestCompareOperandsTable(t *testing.T) {
	num := func(v float64) operand { return operand{IsNum: true, Num: v} }
	str := func(s string) operand { return operand{Str: s} }
	null := operand{IsNull: true}
	cases := []struct {
		op   alog.CompareOp
		a, b operand
		want bool
	}{
		{alog.OpLT, num(1), num(2), true},
		{alog.OpLE, num(2), num(2), true},
		{alog.OpGT, num(3), num(2), true},
		{alog.OpGE, num(2), num(3), false},
		{alog.OpEQ, num(2), num(2), true},
		{alog.OpNE, num(2), num(3), true},
		{alog.OpEQ, str("abc"), str("abc"), true},
		{alog.OpLT, str("abc"), str("abd"), true},
		{alog.OpEQ, null, null, true},
		{alog.OpNE, null, num(1), true},
		{alog.OpLT, null, num(1), false}, // NULL has no order
		{alog.OpEQ, num(1), str("1"), false},
		{alog.OpNE, num(1), str("1"), true},
	}
	for _, c := range cases {
		got, err := compareOperands(c.op, c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("compare(%v %s %v) = %v, %v; want %v", c.a, c.op, c.b, got, err, c.want)
		}
	}
}

func TestSpanOperandClassification(t *testing.T) {
	d := markup.MustParse("d", "42 hello ")
	spanOperand := func(s text.Span) operand {
		rec, _ := feature.NewMemo().Doc(s.Doc()).Values(text.ExactOf(s))
		return rec[0]
	}
	if op := spanOperand(d.Span(0, 2)); !op.IsNum || op.Num != 42 {
		t.Errorf("numeric operand = %+v", op)
	}
	if op := spanOperand(d.Span(3, 8)); op.IsNum || op.Str != "hello" {
		t.Errorf("string operand = %+v", op)
	}
	if op := spanOperand(d.Span(9, 9)); !op.IsNull {
		t.Errorf("empty span should be NULL: %+v", op)
	}
}

func TestCellsMayEqual(t *testing.T) {
	lim := defaultLimits()
	d := markup.MustParse("d", "alpha beta alpha gamma")
	a1 := compact.ExactCell(d.Span(0, 5))   // alpha
	a2 := compact.ExactCell(d.Span(11, 16)) // alpha (different span, same text)
	b := compact.ExactCell(d.Span(6, 10))   // beta
	multi := compact.ContainCell(d.WholeSpan())
	if got, _ := cellsMayEqual(a1, a2, lim); got != allValuations {
		t.Errorf("same-text singletons = %v", got)
	}
	if got, _ := cellsMayEqual(a1, b, lim); got != noValuation {
		t.Errorf("different singletons = %v", got)
	}
	if got, _ := cellsMayEqual(a1, multi, lim); got != someValuations {
		t.Errorf("singleton vs multi = %v", got)
	}
	disjoint := compact.ContainCell(d.Span(6, 10))
	if got, _ := cellsMayEqual(disjoint, compact.ExactCell(d.Span(17, 22)), lim); got != noValuation {
		t.Errorf("disjoint sets = %v", got)
	}
}

func TestFilterTupleExpansionPartial(t *testing.T) {
	d := markup.MustParse("d", "10 20 30")
	cell := compact.Cell{Expand: true, Assigns: []text.Assignment{text.ContainOf(d.WholeSpan())}}
	tp := compact.Tuple{Cells: []compact.Cell{cell}}
	pred := func(vals []text.Span) (bool, error) {
		n, ok := vals[0].Numeric()
		return ok && n >= 20, nil
	}
	res, err := filterTupleF(tp, []int{0}, pred, defaultLimits(), &statBatch{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.keep || res.sure {
		t.Fatalf("outcome = %+v", res)
	}
	repl := res.repl[0]
	if !repl.Expand {
		t.Error("expansion flag lost")
	}
	// Kept values: 20, 30, and multi-token sub-spans are non-numeric (fail),
	// so only the two satisfying singles survive.
	if repl.NumValues() != 2 || !repl.CoversTextValue("20") || !repl.CoversTextValue("30") {
		t.Errorf("filtered cell = %v", repl)
	}
}

func TestFilterTupleCapFallsBackConservative(t *testing.T) {
	d := markup.MustParse("d", strings.Repeat("tok ", 200))
	cell := compact.ContainCell(d.WholeSpan()) // ~20k values, over the cap
	tp := compact.Tuple{Cells: []compact.Cell{cell}}
	calls := 0
	pred := func([]text.Span) (bool, error) { calls++; return false, nil }
	res, err := filterTupleF(tp, []int{0}, pred, defaultLimits(), &statBatch{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.keep || res.sure || calls != 0 {
		t.Errorf("conservative path not taken: %+v, calls=%d", res, calls)
	}
}

func TestFilterTupleEmptyCellDropsTuple(t *testing.T) {
	d := markup.MustParse("d", "x")
	tp := compact.Tuple{Cells: []compact.Cell{{}}} // no assignments: no value
	res, err := filterTupleF(tp, []int{0}, func([]text.Span) (bool, error) { return true, nil }, defaultLimits(), &statBatch{})
	if err != nil {
		t.Fatal(err)
	}
	if res.keep {
		t.Error("tuple with an empty involved cell must be dropped")
	}
	_ = d
}

func TestScanErrors(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "x")
	env.AddDocTable("pages", "x", []*text.Document{d})
	// Arity mismatch between table and rule.
	if _, err := Run(alog.MustParse(`Q(a, b) :- pages(a, b).`), env); err == nil {
		t.Error("scan arity mismatch should fail")
	}
}

func TestProcedureErrors(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "hello world")
	env.AddDocTable("pages", "x", []*text.Document{d})
	env.Procs["boom"] = Procedure{
		Outputs: 1,
		Fn: func(text.Span) ([][]text.Span, error) {
			return nil, errBoom{}
		},
	}
	// A procedure error is the document's fault: d is quarantined and the
	// run returns the table over the survivors, degraded.
	res, err := Run(alog.MustParse(`Q(x, v) :- pages(x), boom(x, v).`), env)
	if err != nil {
		t.Fatalf("procedure error failed the run: %v", err)
	}
	if q := res.Degraded; q == nil || len(q.Quarantined) != 1 || q.Quarantined[0].Doc != "d" ||
		!strings.Contains(q.Quarantined[0].Cause, "boom") {
		t.Errorf("degraded %+v, want d quarantined with cause boom", res.Degraded)
	}
	// Output arity mismatch.
	env.Procs["two"] = Procedure{
		Outputs: 2,
		Fn: func(in text.Span) ([][]text.Span, error) {
			return [][]text.Span{{in}}, nil // 1 output instead of 2
		},
	}
	if _, err := Run(alog.MustParse(`Q(x, a, b) :- pages(x), two(x, a, b).`), env); err == nil {
		t.Error("procedure arity mismatch must propagate")
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestConstantArgumentFilters(t *testing.T) {
	env := NewEnv()
	d1 := markup.MustParse("d1", "alpha")
	d2 := markup.MustParse("d2", "beta")
	env.AddDocTable("pages", "x", []*text.Document{d1, d2})
	// Constant in an extensional atom filters the scan.
	res, err := Run(alog.MustParse(`Q(v) :- pages(v), inner(v, "alpha").
inner(a, b) :- pages(a), pages(b).`), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 { // v unconstrained by the constant filter? no:
		// inner(v, "alpha") keeps only b="alpha"; v ranges over both pages.
		t.Fatalf("result:\n%s", res)
	}
}

func TestExistenceThenComparisonKeepsMaybe(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "600000")
	env.AddDocTable("pages", "x", []*text.Document{d})
	res, err := Run(alog.MustParse(`
cand(x, v)? :- pages(x), ext(x, v).
Q(x, v) :- cand(x, v), v > 500000.
ext(x, v) :- from(x, v), numeric(v) = yes.
`), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || !res.Tuples[0].Maybe {
		t.Fatalf("existence maybe lost:\n%s", res)
	}
}

func TestSimJoinBlockingDropsNonCandidates(t *testing.T) {
	env := NewEnv()
	var left, right []*text.Document
	left = append(left, markup.MustParse("l0", "<b>Query Optimization</b>"))
	right = append(right,
		markup.MustParse("r0", "<b>Query Optimization</b>"),
		markup.MustParse("r1", "<b>Transaction Recovery</b>"),
	)
	env.AddDocTable("L", "x", left)
	env.AddDocTable("R", "y", right)
	ctx := NewContext(env)
	plan, err := Compile(alog.MustParse(`
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>) :- R(y), e2(y, t).
Q(s, t) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
`), env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("result:\n%s", res)
	}
	// Blocking must avoid calling the predicate on the non-candidate pair.
	if ctx.Stats.FuncCalls > 1 {
		t.Errorf("blocking ineffective: %d similarity calls", ctx.Stats.FuncCalls)
	}
}

func TestAnnotateConservativeFallback(t *testing.T) {
	// A key cell too large to enumerate: the annotation must pass the tuple
	// through as maybe instead of grouping.
	d := markup.MustParse("d", strings.Repeat("w ", 300))
	env := NewEnv()
	in := compact.NewTable("k", "v")
	in.Append(compact.Tuple{Cells: []compact.Cell{
		compact.ContainCell(d.WholeSpan()), // enormous key cell
		compact.ExactCell(d.Span(0, 1)),
	}})
	env.Tables["T"] = in
	ctx := NewContext(env)
	out, err := Eval(ctx, newAnnotateNode(env, newScanNode(env, "T", []string{"k", "v"}), false, []string{"v"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tuples) != 1 || !out.Tuples[0].Maybe || ctx.Stats.LimitFallbacks != 1 {
		t.Fatalf("fallback wrong (%d fallbacks):\n%s", ctx.Stats.LimitFallbacks, out)
	}
}

func TestProjectReordersColumns(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "alpha 42")
	env.AddDocTable("pages", "x", []*text.Document{d})
	res, err := Run(alog.MustParse(`
Q(v, x) :- pages(x), ext(x, v).
ext(x, v) :- from(x, v), numeric(v) = yes.
`), env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0] != "v" || res.Cols[1] != "x" {
		t.Fatalf("columns = %v", res.Cols)
	}
	if v, ok := res.Tuples[0].Cells[0].Singleton(); !ok || v.Text() != "42" {
		t.Errorf("reordered cell = %v", res.Tuples[0].Cells[0])
	}
}

func TestStringComparisonOverCells(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "alpha beta")
	env.AddDocTable("pages", "x", []*text.Document{d})
	res, err := Run(alog.MustParse(`
Q(x, v) :- pages(x), ext(x, v), v = "beta".
ext(x, v) :- from(x, v), max-tokens(v) = 1.
`), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("result:\n%s", res)
	}
	cell := res.Tuples[0].Cells[1]
	if !cell.Expand || cell.NumValues() != 1 || !cell.CoversTextValue("beta") {
		t.Fatalf("string-filtered cell = %v", cell)
	}
}

func TestUnionArityMismatchRejected(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "x")
	env.AddDocTable("pages", "x", []*text.Document{d})
	prog := alog.MustParse(`
T(x) :- pages(x).
T(x, y) :- pages(x), pages(y).
Q(x) :- T(x).
`)
	if _, err := Compile(prog, env); err == nil {
		t.Fatal("rules with mismatched arity for one predicate must be rejected")
	}
}

func TestSelfSimilarityJoinSameTable(t *testing.T) {
	// Joining a table with itself through two rule instances exercises the
	// memoised sub-plan sharing.
	env := NewEnv()
	// Distinct page texts (identical pages would be equal *values* and
	// legitimately group under the attribute annotation).
	docs := []*text.Document{
		markup.MustParse("a", "<b>Query Basics</b> first posting"),
		markup.MustParse("b", "<b>Query Basics</b> second posting"),
		markup.MustParse("c", "<b>Other Title</b> third posting"),
	}
	env.AddDocTable("P", "x", docs)
	res, err := Run(alog.MustParse(`
l(x, <s>) :- P(x), e(x, s).
r(y, <t>) :- P(y), e(y, t).
Q(s, t) :- l(x, s), r(y, t), similar(s, t).
e(x, s) :- from(x, s), bold-font(s) = distinct-yes.
`), env)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs: (a,a),(a,b),(b,a),(b,b),(c,c) = 5.
	if len(res.Tuples) != 5 {
		t.Fatalf("self-join result (%d tuples):\n%s", len(res.Tuples), res)
	}
}

// TestSelectionsKeepNoMemo: under delta evaluation a comparison and a
// p-function selection leave cache entries with no per-tuple memo and count
// no tuple reused or recomputed, while the constraint run above them still
// replays the tuples a refinement below them left alone. The table equals a
// fresh evaluation's.
func TestSelectionsKeepNoMemo(t *testing.T) {
	env := figure2Env()
	env.Funcs["distinct"] = PFunc{Fn: func(args []text.Span) (bool, error) {
		return args[0].NormText() != args[1].NormText(), nil
	}}
	k := func(feat, attr, value string) feature.Constraint {
		return feature.Constraint{Feature: feat, Attr: attr, Value: value}
	}
	numP, numA := k("numeric", "p", "yes"), k("numeric", "a", "yes")
	v := func(name string) alog.Term { return alog.Term{Kind: alog.TermVar, Var: name} }
	// from(x, p), from(x, a), a run on each, p > 300000, distinct(p, a), and
	// a second run on p above the two selections; v2 refines a below them.
	plan := func(aCons ...feature.Constraint) Node {
		n := Node(newConstraintNode(env, newFromNode(env, newFromNode(env, newScanNode(env, "housePages", []string{"x"}), "x", "p"), "x", "a"), numP, nil))
		for i, c := range aCons {
			n = newConstraintNode(env, n, c, aCons[:i])
		}
		n = newCompareNode(env, n, alog.Compare{Op: alog.OpGT, L: v("p"), R: alog.Term{Kind: alog.TermNum, Num: 300000}})
		n = newFuncNode(env, n, "distinct", []alog.Term{v("p"), v("a")})
		return newConstraintNode(env, n, k("preceded-by", "p", "Price:"), []feature.Constraint{numP})
	}
	v1, v2 := plan(numA), plan(numA, k("preceded-by", "a", "Sqft:"))
	ctx := NewContext(env)
	ctx.EnableDelta()
	if _, err := Eval(ctx, v1); err != nil {
		t.Fatal(err)
	}
	ctx.RegisterDelta(v1, v2)
	got, err := Eval(ctx, v2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Eval(NewContext(env), v2)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || len(got.Tuples) == 0 {
		t.Fatalf("delta table\n%s\nfresh table\n%s", got, want)
	}
	selections := 0
	for _, e := range ctx.cache {
		switch e.node.(type) {
		case *compareNode, *funcNode:
			selections++
			if e.aux != nil {
				t.Errorf("%s keeps a memo of %d tuples", e.node.Signature(), len(e.aux.in))
			}
		}
	}
	if selections != 4 {
		t.Fatalf("%d selection entries cached, want two per plan version", selections)
	}
	var runReused int64
	for _, o := range ctx.TraceOps() {
		switch {
		case strings.HasPrefix(o.Signature, "select["), strings.HasPrefix(o.Signature, "pfunc["):
			if o.TuplesReused != 0 || o.TuplesRecomputed != 0 {
				t.Errorf("%s: %d tuples reused, %d recomputed", o.Signature, o.TuplesReused, o.TuplesRecomputed)
			}
		case strings.HasPrefix(o.Signature, `constrain[preceded-by(p)="Price:"](pfunc[`):
			runReused += o.TuplesReused
		}
	}
	if runReused == 0 || ctx.Stats.TuplesReused != runReused {
		t.Errorf("the run above the selections replayed %d tuples, %d in all", runReused, ctx.Stats.TuplesReused)
	}
}
