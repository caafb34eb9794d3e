package engine

import (
	"strings"
	"testing"
	"unicode/utf8"

	"iflex/internal/alog"
	"iflex/internal/markup"
	"iflex/internal/text"
)

// Figure 4 of the paper: compiling the Figure 2 program must unfold the
// description rules, build one fragment per rule with the ψ annotation
// operator at its root, and stitch the fragments into one plan.
func TestFigure4CompileStructure(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	rendered := plan.String()

	// The plan reads both extensional tables...
	for _, want := range []string{"scan housePages", "scan schoolPages"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("plan missing %q:\n%s", want, rendered)
		}
	}
	// ...extracts with from and domain-constraint selections...
	if !strings.Contains(rendered, "from(") {
		t.Errorf("plan missing from operators:\n%s", rendered)
	}
	if !strings.Contains(rendered, `σ[numeric(p)="yes"]`) {
		t.Errorf("plan missing numeric constraint:\n%s", rendered)
	}
	if !strings.Contains(rendered, `σ[bold-font(s)="yes"]`) {
		t.Errorf("plan missing bold-font constraint:\n%s", rendered)
	}
	// ...applies ψ for both annotated rules (attribute + existence)...
	if !strings.Contains(rendered, "ψ[<a> <h> <p>]") {
		t.Errorf("plan missing attribute ψ:\n%s", rendered)
	}
	if !strings.Contains(rendered, "ψ[?]") {
		t.Errorf("plan missing existence ψ:\n%s", rendered)
	}
	// ...and evaluates the comparisons and the p-function join.
	if !strings.Contains(rendered, "σ[p > 500000]") || !strings.Contains(rendered, "σ[a > 4500]") {
		t.Errorf("plan missing comparisons:\n%s", rendered)
	}
	if !strings.Contains(rendered, "approxMatch") {
		t.Errorf("plan missing approxMatch:\n%s", rendered)
	}
}

// The annotation operator must sit at the root of its rule's fragment:
// above the projection to the rule head (Section 4: "append an annotation
// operator ψ to the root of h"). A head that lists the body's columns in
// order projects nothing, and ψ sits on the body itself.
func TestFigure4AnnotationAtFragmentRoot(t *testing.T) {
	for _, leg := range []struct {
		head    string
		project bool
	}{{"houses(x, <p>)", false}, {"houses(<p>, x)", true}, {"houses(<p>)", true}} {
		env := figure2Env()
		plan, err := Compile(alog.MustParse(leg.head+` :- housePages(x), extractP(x, p).
extractP(x, p) :- from(x, p), numeric(p) = yes.
`), env)
		if err != nil {
			t.Fatal(err)
		}
		ann, ok := plan.Root.(*annotateNode)
		if !ok {
			t.Fatalf("%s: root is %T, want *annotateNode:\n%s", leg.head, plan.Root, plan)
		}
		if _, ok := ann.parent.(*projectNode); ok != leg.project {
			t.Errorf("%s: ψ's child is %T, want a projection %t:\n%s", leg.head, ann.parent, leg.project, plan)
		}
	}
}

// The similarity join must compile to the fused token-blocked operator.
func TestSimJoinFusion(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(`
a(x, <s>) :- housePages(x), e1(x, s).
b(y, <t>) :- schoolPages(y), e2(y, t).
Q(s, t) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s).
e2(y, t) :- from(y, t).
`), env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "⋈~[similar(s,t)]") {
		t.Errorf("similarity join not fused:\n%s", plan)
	}
}

// With fusion disabled (an opaque function), the same program compiles
// to a cross product plus a p-function selection — and both plans must
// produce identical results.
func TestSimJoinEquivalentToNaive(t *testing.T) {
	src := `
a(x, <s>) :- housePages(x), e1(x, s).
b(y, <t>) :- schoolPages(y), e2(y, t).
Q(s, t) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = yes.
e2(y, t) :- from(y, t), bold-font(t) = yes.
`
	envFused := figure2Env()
	fused, err := Run(alog.MustParse(src), envFused)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Run(alog.MustParse(src), opaqueEnv(figure2Env()))
	if err != nil {
		t.Fatal(err)
	}
	if fused.Canonical() != naive.Canonical() {
		t.Errorf("fused and naive similarity joins disagree:\nfused:\n%s\nnaive:\n%s",
			fused.Canonical(), naive.Canonical())
	}
}

func TestCountNodes(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	if n := CountNodes(plan.Root); n < 10 {
		t.Errorf("plan suspiciously small: %d nodes", n)
	}
}

// Explain cuts a long signature at a rune boundary: the constraint value
// below puts a three-byte rune across the cut.
func TestExplainCutsAtRune(t *testing.T) {
	env := NewEnv()
	env.AddDocTable("pages", "x", []*text.Document{markup.MustParse("d1", "Preis inkl. MwSt €: 12,99")})
	plan, err := Compile(alog.MustParse(`
prices(x, p) :- pages(x), from(x, p), preceded-by(p) = "Preis inkl. MwSt €:".
`), env)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Explain(NewContext(env))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MwSt") {
		t.Fatalf("no line shows the constraint:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if !utf8.ValidString(line) {
			t.Errorf("invalid UTF-8: %q", line)
		}
	}
}
