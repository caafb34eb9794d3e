package engine

import (
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/markup"
	"iflex/internal/text"
)

func TestResultBounds(t *testing.T) {
	d := markup.MustParse("d", "alpha beta 42")
	tb := compact.NewTable("v")
	tb.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(d.Span(0, 5))}})               // certain
	tb.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(d.Span(6, 10))}, Maybe: true}) // maybe
	tb.Append(compact.Tuple{Cells: []compact.Cell{compact.ContainCell(d.WholeSpan())}})            // unpinned
	b := ResultBounds(tb)
	if len(b.Certain.Tuples) != 1 {
		t.Fatalf("certain:\n%s", b.Certain)
	}
	if v, _ := b.Certain.Tuples[0].Cells[0].Singleton(); v.Text() != "alpha" {
		t.Errorf("certain tuple = %s", b.Certain.Tuples[0])
	}
	if len(b.Possible.Tuples) != 3 {
		t.Errorf("possible = %d tuples", len(b.Possible.Tuples))
	}
}

// The certain bound of the Figure 2 run: the comparison leaves only maybe
// tuples (values uncertain), so the certain core is empty until the
// program is refined; after refinement the certain core still excludes
// the tuple because the school join remains maybe (existence annotation).
func TestBoundsOnFigure2(t *testing.T) {
	env := figure2Env()
	res, err := Run(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	b := ResultBounds(res)
	if len(b.Certain.Tuples) != 0 {
		t.Errorf("maybe-only result should have empty certain core:\n%s", b.Certain)
	}
}

func TestUseTFIDF(t *testing.T) {
	env := NewEnv()
	docs := []*text.Document{
		markup.MustParse("a", "<b>Query Processing Basics</b>"),
		markup.MustParse("b", "<b>Query Processing Basics</b>"),
		markup.MustParse("c", "<b>Transaction Recovery Methods</b>"),
	}
	env.AddDocTable("L", "x", docs[:1])
	env.AddDocTable("R", "y", docs[1:])
	env.UseTFIDF(0.9)
	prog := alog.MustParse(`
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>) :- R(y), e2(y, t).
Q(s, t) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
`)
	// TF/IDF declares no token similarity, so the join is σ over ×.
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if ps := PlanString(plan.Root); strings.Contains(ps, "⋈~") {
		t.Fatalf("TF/IDF similarity fused:\n%s", ps)
	}
	res, err := plan.Execute(NewContext(env))
	if err != nil {
		t.Fatal(err)
	}
	// Only the identical titles match at cosine >= 0.9.
	if len(res.Tuples) != 1 {
		t.Fatalf("TF/IDF join result:\n%s", res)
	}
}
