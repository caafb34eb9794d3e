package engine

import (
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/markup"
	"iflex/internal/text"
)

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
