package engine

import (
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/markup"
	"iflex/internal/oracle"
	"iflex/internal/text"
)

// Documents modelled on Figure 1.b of the paper.
func houseDocs() []*text.Document {
	x1 := markup.MustParse("x1", `Cozy house on quiet street.<br>
5146 Windsor Ave., Champaign<br>
Sqft: 2750<br>
Price: 351000<br>
High school: Vanhise High`)
	x2 := markup.MustParse("x2", `Amazing house in great location.<br>
3112 Stonecreek Blvd., Cherry Hills<br>
Sqft: 4700<br>
Price: 619000<br>
High school: Basktall HS`)
	return []*text.Document{x1, x2}
}

func schoolDocs() []*text.Document {
	y1 := markup.MustParse("y1", `<title>Top High Schools and Location (page 1)</title>
<ul><li><b>Basktall</b>, Cherry Hills</li>
<li><b>Franklin</b>, Robeson</li>
<li><b>Vanhise</b>, Champaign</li></ul>`)
	y2 := markup.MustParse("y2", `<title>Top High Schools and Location (page 2)</title>
<ul><li><b>Hoover</b>, Akron</li>
<li><b>Ossage</b>, Lynneville</li></ul>`)
	return []*text.Document{y1, y2}
}

func figure2Env() *Env {
	env := NewEnv()
	env.AddDocTable("housePages", "x", houseDocs())
	env.AddDocTable("schoolPages", "y", schoolDocs())
	return env
}

const figure2Src = `
houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(x, p, a, h).
schools(s)? :- schoolPages(y), extractSchools(y, s).
Q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000, a > 4500,
                 approxMatch(h, s).
extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h),
                             numeric(p) = yes, numeric(a) = yes.
extractSchools(y, s) :- from(y, s), bold-font(s) = yes.
`

func TestFigure2EndToEnd(t *testing.T) {
	env := figure2Env()
	prog := alog.MustParse(figure2Src)
	res, err := Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 4 {
		t.Fatalf("columns = %v", res.Cols)
	}
	// Only x2 has a numeric value above 500000 and one above 4500.
	if len(res.Tuples) != 1 {
		t.Fatalf("result:\n%s", res)
	}
	tp := res.Tuples[0]
	if !tp.Maybe {
		t.Error("result tuple should be maybe (uncertain values + maybe school)")
	}
	if doc, ok := tp.Cells[0].Singleton(); !ok || doc.Doc().ID() != "x2" {
		t.Errorf("x cell = %v", tp.Cells[0])
	}
	d := houseDocs()[1] // fresh doc with same content; compare by text
	_ = d
	foundPrice := false
	tp.Cells[1].Values(func(s text.Span) bool {
		if s.NormText() == "619000" {
			foundPrice = true
			return false
		}
		return true
	})
	if !foundPrice {
		t.Errorf("price cell misses 619000: %v", tp.Cells[1])
	}
}

// Refining the program with more constraints must shrink the result toward
// the precise answer (the iFlex iteration loop of Section 2.2.4).
func TestFigure2Refined(t *testing.T) {
	env := figure2Env()
	prog := alog.MustParse(figure2Src)
	if err := prog.AddConstraint(alog.AttrRef{Pred: "extractHouses", Var: "p"}, "preceded-by", "Price:"); err != nil {
		t.Fatal(err)
	}
	if err := prog.AddConstraint(alog.AttrRef{Pred: "extractHouses", Var: "a"}, "preceded-by", "Sqft:"); err != nil {
		t.Fatal(err)
	}
	if err := prog.AddConstraint(alog.AttrRef{Pred: "extractHouses", Var: "h"}, "preceded-by", "High school:"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("result:\n%s", res)
	}
	tp := res.Tuples[0]
	p, okP := tp.Cells[1].Singleton()
	a, okA := tp.Cells[2].Singleton()
	if !okP || p.NormText() != "619000" {
		t.Errorf("p = %v", tp.Cells[1])
	}
	if !okA || a.NormText() != "4700" {
		t.Errorf("a = %v", tp.Cells[2])
	}
	// preceded-by narrows h to the label-to-line-end region; contain of a
	// two-token region still encodes 3 values, all within "Basktall HS".
	hCell := tp.Cells[3]
	if !hCell.CoversTextValue("Basktall HS") || hCell.NumValues() > 3 {
		t.Errorf("h = %v", hCell)
	}
}

// The schools sub-plan alone: with bold-font(s)=yes and an existence
// annotation, the result is one expansion tuple per page over the bold
// regions, all maybe.
func TestSchoolsFragment(t *testing.T) {
	env := figure2Env()
	prog := alog.MustParse(`
schools(s)? :- schoolPages(y), extractSchools(y, s).
extractSchools(y, s) :- from(y, s), bold-font(s) = yes.
`)
	res, err := Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 { // one compact tuple per page
		t.Fatalf("result:\n%s", res)
	}
	total := 0
	for _, tp := range res.Tuples {
		if !tp.Maybe {
			t.Error("existence annotation must mark tuples maybe")
		}
		if !tp.Cells[0].Expand {
			t.Error("school cell should still be an expansion cell")
		}
		total += tp.NumExpanded()
	}
	// Bold regions are single tokens: Basktall, Franklin, Vanhise, Hoover, Ossage.
	if total != 5 {
		t.Errorf("expanded school tuples = %d, want 5", total)
	}
}

// Figure 5 of the paper: BAnnotate over the Alice/Bob/Carol/Dave a-table.
func TestFigure5BAnnotate(t *testing.T) {
	d := markup.MustParse("d", "Alice Bob Carol Dave 5 6 7 8 9")
	sp := func(sub string) text.Span {
		i := strings.Index(d.Text(), sub)
		return d.Span(i, i+len(sub))
	}
	in := oracle.NewATable("name", "age")
	in.Tuples = []oracle.ATuple{
		{Cells: []oracle.ACell{{sp("Alice"), sp("Bob")}, {sp("5")}}},
		{Cells: []oracle.ACell{{sp("Alice"), sp("Carol")}, {sp("6"), sp("7")}}},
		{Cells: []oracle.ACell{{sp("Dave")}, {sp("8"), sp("9")}}},
	}
	out := oracle.BAnnotate(in, []string{"age"})
	if len(out.Tuples) != 4 {
		t.Fatalf("output:\n%s", out)
	}
	byName := map[string]oracle.ATuple{}
	for _, tp := range out.Tuples {
		byName[tp.Cells[0][0].NormText()] = tp
	}
	check := func(name string, ages []string, maybe bool) {
		t.Helper()
		tp, ok := byName[name]
		if !ok {
			t.Fatalf("missing tuple for %s", name)
		}
		if tp.Maybe != maybe {
			t.Errorf("%s maybe = %v, want %v", name, tp.Maybe, maybe)
		}
		if len(tp.Cells[1]) != len(ages) {
			t.Errorf("%s ages = %v, want %v", name, tp.Cells[1], ages)
			return
		}
		for i, a := range ages {
			if tp.Cells[1][i].NormText() != a {
				t.Errorf("%s age %d = %s, want %s", name, i, tp.Cells[1][i].NormText(), a)
			}
		}
	}
	// Exactly the table of Figure 5.b.
	check("Alice", []string{"5", "6", "7"}, true)
	check("Bob", []string{"5"}, true)
	check("Carol", []string{"6", "7"}, true)
	check("Dave", []string{"8", "9"}, false)
}

// cAnnotate must agree with the reference BAnnotate when inputs have exact
// singleton keys.
func TestCAnnotateMatchesBAnnotate(t *testing.T) {
	env := figure2Env()
	prog := alog.MustParse(`
houses(x, <p>) :- housePages(x), extractP(x, p).
extractP(x, p) :- from(x, p), numeric(p) = yes.
`)
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Execute(NewContext(env))
	if err != nil {
		t.Fatal(err)
	}
	// Reference: run the un-annotated program and push through BAnnotate.
	prog2 := alog.MustParse(`
houses(x, p) :- housePages(x), extractP(x, p).
extractP(x, p) :- from(x, p), numeric(p) = yes.
`)
	raw, err := Run(prog2, env)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.BAnnotate(oracle.ToATable(raw), []string{"p"})
	gotA := oracle.ToATable(got)
	if len(gotA.Tuples) != len(want.Tuples) {
		t.Fatalf("cAnnotate: %d tuples, BAnnotate: %d\ngot:\n%s\nwant:\n%s",
			len(gotA.Tuples), len(want.Tuples), gotA, want)
	}
	worldsGot, err := gotA.Worlds(100000)
	if err != nil {
		t.Fatal(err)
	}
	worldsWant, err := want.Worlds(100000)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.IsSupersetOf(worldsGot, worldsWant) || !oracle.IsSupersetOf(worldsWant, worldsGot) {
		t.Error("cAnnotate and BAnnotate represent different sets of relations")
	}
}

// Superset semantics: the engine's set of possible relations must include
// the precise relation set (annotated grouping, one value per doc).
func TestSupersetSemanticsAnnotated(t *testing.T) {
	env := NewEnv()
	d1 := markup.MustParse("d1", "a 10 b 20")
	d2 := markup.MustParse("d2", "c 30")
	env.AddDocTable("pages", "x", []*text.Document{d1, d2})
	prog := alog.MustParse(`
T(x, <v>) :- pages(x), ext(x, v).
ext(x, v) :- from(x, v), numeric(v) = yes.
`)
	res, err := Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	worlds, err := oracle.ToATable(res).Worlds(100000)
	if err != nil {
		t.Fatal(err)
	}
	// True possible relations: {(d1, v1), (d2, 30)} for v1 in {10, 20}.
	d1Text := d1.WholeSpan().NormText()
	d2Text := d2.WholeSpan().NormText()
	for _, v1 := range []string{"10", "20"} {
		w := oracle.World{{d1Text, v1}, {d2Text, "30"}}.Canonical()
		if !worlds[w] {
			t.Errorf("true world missing: %q", w)
		}
	}
}

func TestComparisonOperatorsOverCells(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "values: 10 20 30")
	env.AddDocTable("pages", "x", []*text.Document{d})
	run := func(src string) *compact.Table {
		t.Helper()
		res, err := Run(alog.MustParse(src), env)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := `ext(x, v) :- from(x, v), numeric(v) = yes.
`
	// v > 25 keeps the tuple (30 qualifies) as maybe.
	res := run(`T(x, v) :- pages(x), ext(x, v), v > 25.` + "\n" + base)
	if len(res.Tuples) != 1 || !res.Tuples[0].Maybe {
		t.Fatalf("v>25: %s", res)
	}
	// v > 50 eliminates everything.
	res = run(`T(x, v) :- pages(x), ext(x, v), v > 50.` + "\n" + base)
	if len(res.Tuples) != 0 {
		t.Fatalf("v>50: %s", res)
	}
	// v >= 10 holds for every value: tuple must stay non-maybe.
	res = run(`T(x, v) :- pages(x), ext(x, v), v >= 10.` + "\n" + base)
	if len(res.Tuples) != 1 || res.Tuples[0].Maybe {
		t.Fatalf("v>=10: %s", res)
	}
}

func TestExpansionCellFiltering(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "10 enormous 20 tiny 30")
	env.AddDocTable("pages", "x", []*text.Document{d})
	// No annotation: v stays an expansion cell; the comparison must filter
	// its values down to {30}.
	prog := alog.MustParse(`
T(x, v) :- pages(x), ext(x, v), v > 25.
ext(x, v) :- from(x, v), numeric(v) = yes.
`)
	res, err := Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("result:\n%s", res)
	}
	cell := res.Tuples[0].Cells[1]
	if !cell.Expand {
		t.Fatal("v should remain an expansion cell")
	}
	if cell.NumValues() != 1 || !cell.CoversTextValue("30") {
		t.Fatalf("filtered cell = %v", cell)
	}
}

func TestNaturalJoinOnSharedVariable(t *testing.T) {
	env := NewEnv()
	d1 := markup.MustParse("d1", "alpha 1")
	d2 := markup.MustParse("d2", "beta 2")
	env.AddDocTable("pages", "x", []*text.Document{d1, d2})
	env.AddDocTable("rich", "x", []*text.Document{d2})
	prog := alog.MustParse(`Q(x) :- pages(x), rich(x).`)
	res, err := Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("natural join result:\n%s", res)
	}
	if s, _ := res.Tuples[0].Cells[0].Singleton(); s.Doc().ID() != "d2" {
		t.Errorf("joined doc = %v", s)
	}
}

func TestProcedureNode(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "names: alice bob carol")
	env.AddDocTable("pages", "x", []*text.Document{d})
	// lastToken(x, v): emits the last token of its input.
	env.Procs["lastToken"] = Procedure{
		Outputs: 1,
		Fn: func(in text.Span) ([][]text.Span, error) {
			sh, ok := in.Shrink()
			if !ok {
				return nil, nil
			}
			n := sh.NumTokens()
			return [][]text.Span{{sh.TokenSpan(n-1, n)}}, nil
		},
	}
	prog := alog.MustParse(`Q(x, v) :- pages(x), lastToken(x, v).`)
	res, err := Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("result:\n%s", res)
	}
	if v, ok := res.Tuples[0].Cells[1].Singleton(); !ok || v.Text() != "carol" {
		t.Errorf("v = %v", res.Tuples[0].Cells[1])
	}
	if res.Tuples[0].Maybe {
		t.Error("single-valuation procedure output must not be maybe")
	}
}

func TestReuseCacheAcrossIterations(t *testing.T) {
	env := figure2Env()
	prog := alog.MustParse(figure2Src)
	ctx := NewContext(env)
	plan1, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan1.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	evaluated := ctx.Stats.NodesEvaluated
	if ctx.Stats.CacheHits != 0 && evaluated == 0 {
		t.Fatal("first run should evaluate nodes")
	}
	// Refine only the school attribute; the houses subtree must be reused.
	prog2 := prog.Clone()
	if err := prog2.AddConstraint(alog.AttrRef{Pred: "extractSchools", Var: "s"}, "in-list", "yes"); err != nil {
		t.Fatal(err)
	}
	plan2, err := Compile(prog2, env)
	if err != nil {
		t.Fatal(err)
	}
	before := ctx.Stats.CacheHits
	if _, err := plan2.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.CacheHits <= before {
		t.Error("second iteration should reuse cached subtrees")
	}
	// The scan + houses fragment signatures are unchanged: their cached
	// results must be present under the same keys.
	if ctx.Stats.NodesEvaluated >= 2*evaluated {
		t.Errorf("reuse ineffective: %d nodes evaluated after refinement (first run: %d)",
			ctx.Stats.NodesEvaluated-evaluated, evaluated)
	}
}

func TestSubsetEvaluation(t *testing.T) {
	env := figure2Env()
	prog := alog.MustParse(`
T(x, p) :- housePages(x), extractP(x, p).
extractP(x, p) :- from(x, p), numeric(p) = yes.
`)
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.SetDocFilter(map[string]bool{"x1": true})
	res, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("subset result:\n%s", res)
	}
	// Full evaluation through the same context must not alias the subset
	// cache entry.
	ctx.SetDocFilter(nil)
	res, err = plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("full result after subset:\n%s", res)
	}
}

func TestUnionOfRules(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "10 <b>bold</b> rest")
	env.AddDocTable("pages", "x", []*text.Document{d})
	prog := alog.MustParse(`
T(x, v) :- pages(x), ext(x, v).
ext(x, v) :- from(x, v), numeric(v) = yes.
ext(x, v) :- from(x, v), bold-font(v) = yes.
`)
	res, err := Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("union result:\n%s", res)
	}
}

func TestCompileErrors(t *testing.T) {
	env := NewEnv()
	env.AddDocTable("pages", "x", []*text.Document{markup.MustParse("d", "hi")})
	cases := []string{
		`Q(x) :- missing(x).`,                       // unknown predicate
		`Q(x, v) :- pages(x), ext(x, v).`,           // IE pred without description
		`Q(x) :- pages(x), nosuchfeature(x) = yes.`, // unknown feature
	}
	for _, src := range cases {
		if _, err := Compile(alog.MustParse(src), env); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestRecursionRejected(t *testing.T) {
	env := NewEnv()
	env.AddDocTable("pages", "x", []*text.Document{markup.MustParse("d", "hi")})
	prog := alog.MustParse(`
a(x) :- b(x).
b(x) :- a(x).
Q(x) :- pages(x), a(x).
`)
	if _, err := Compile(prog, env); err == nil {
		t.Fatal("recursive program should be rejected")
	}
}

func TestNullComparison(t *testing.T) {
	env := NewEnv()
	d := markup.MustParse("d", "alpha beta")
	env.AddDocTable("pages", "x", []*text.Document{d})
	// A procedure that returns an empty span (NULL) for one doc.
	env.Procs["maybeNull"] = Procedure{
		Outputs: 1,
		Fn: func(in text.Span) ([][]text.Span, error) {
			return [][]text.Span{{in.Doc().Span(0, 0)}}, nil
		},
	}
	prog := alog.MustParse(`Q(x, v) :- pages(x), maybeNull(x, v), v != NULL.`)
	res, err := Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("NULL values must not satisfy v != NULL:\n%s", res)
	}
	prog = alog.MustParse(`Q(x, v) :- pages(x), maybeNull(x, v), v = NULL.`)
	res, err = Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("v = NULL should match:\n%s", res)
	}
}

func TestStatsAccumulate(t *testing.T) {
	env := figure2Env()
	prog := alog.MustParse(figure2Src)
	ctx := NewContext(env)
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.RefineCalls == 0 || ctx.Stats.FuncCalls == 0 {
		t.Errorf("stats not collected: %+v", ctx.Stats)
	}
}

func TestSumAssignments(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	total, err := SumAssignments(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	final, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if total <= final.NumAssignments() {
		t.Errorf("whole-plan assignments (%d) must exceed final table's (%d)",
			total, final.NumAssignments())
	}
	// Refining the program perturbs the whole-plan total even when the
	// final projection is unchanged — the convergence monitor's signal.
	prog2 := alog.MustParse(figure2Src)
	if err := prog2.AddConstraint(alog.AttrRef{Pred: "extractSchools", Var: "s"}, "in-list", "yes"); err != nil {
		t.Fatal(err)
	}
	plan2, err := Compile(prog2, env)
	if err != nil {
		t.Fatal(err)
	}
	total2, err := SumAssignments(ctx, plan2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if total2 == total {
		t.Error("refinement did not perturb the assignment total")
	}
}
