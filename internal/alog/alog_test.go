package alog

import (
	"fmt"
	"strings"
	"testing"
)

// The Figure 2 program of the paper, in our ASCII syntax.
const figure2Src = `
// Skeleton rules (Figure 2.a / 2.c, with annotations).
houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(x, p, a, h).
schools(s)? :- schoolPages(y), extractSchools(y, s).
Q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000, a > 4500,
                 approxMatch(h, s).

// Description rules (Figure 2.b).
extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h),
                             numeric(p) = yes, numeric(a) = yes.
extractSchools(y, s) :- from(y, s), bold-font(s) = yes.
`

func figure2Schema() *Schema {
	return &Schema{
		Extensional: map[string][]string{
			"housePages":  {"x"},
			"schoolPages": {"y"},
		},
		Functions: map[string]bool{"approxMatch": true},
	}
}

func TestParseFigure2(t *testing.T) {
	p, err := Parse(figure2Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 5 {
		t.Fatalf("got %d rules", len(p.Rules))
	}
	if p.Query != "Q" {
		t.Fatalf("query = %q", p.Query)
	}
	houses := p.Rules[0]
	if houses.Head.Pred != "houses" || len(houses.AnnAttrs) != 3 {
		t.Fatalf("houses rule = %+v", houses)
	}
	if !houses.Annotated("p") || houses.Annotated("x") {
		t.Error("attribute annotations wrong")
	}
	schools := p.Rules[1]
	if !schools.Exists {
		t.Error("schools should carry an existence annotation")
	}
	q := p.Rules[2]
	if len(q.Body) != 5 {
		t.Fatalf("Q body = %d literals", len(q.Body))
	}
	if q.Body[2].Kind != LitCompare || q.Body[2].Cmp.Op != OpGT {
		t.Errorf("literal 3 = %v", q.Body[2])
	}
	eh := p.Rules[3]
	if !eh.IsDescription(figure2Schema()) {
		t.Error("extractHouses should be a description rule")
	}
	last := eh.Body[len(eh.Body)-1]
	if last.Kind != LitConstraint || last.Cons.Feature != "numeric" || last.Cons.Value != "yes" {
		t.Errorf("constraint = %v", last)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"p(x) :- q(x)",                 // missing period
		"p(x :- q(x).",                 // bad head
		"p(x) :- .",                    // empty body literal
		"p(x) :- q(x), .",              // trailing comma
		"p(<x) :- q(x).",               // unclosed annotation
		"p(x) :- x !.",                 // bad operator
		`p(x) :- f(x) = .`,             // missing constraint value
		"p(x) :- q(x). trailing",       // garbage after rule
		`p(x) :- q("unterminated.`,     // bad string
		"p(x) :- numeric(x, y) = yes.", // constraint with 2 vars
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseComparisonOperators(t *testing.T) {
	p := MustParse(`T(x) :- r(x, a, b), a < 5, a <= 5, a > 1, a >= 1, a = b, a != NULL.`)
	ops := []CompareOp{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE}
	for i, want := range ops {
		lit := p.Rules[0].Body[i+1]
		if lit.Kind != LitCompare || lit.Cmp.Op != want {
			t.Errorf("literal %d = %v, want op %s", i+1, lit, want)
		}
	}
	if p.Rules[0].Body[6].Cmp.R.Kind != TermNull {
		t.Error("NULL constant not parsed")
	}
}

func TestParseConstraintSugar(t *testing.T) {
	// Two-argument sugar stays an atom at parse time (only name resolution
	// can tell a feature from a predicate); SugarConstraint interprets it.
	p := MustParse(`e(d, x) :- from(d, x), preceded_by(x, "Price:"), max_length(x, 18).`)
	b := p.Rules[0].Body
	if b[1].Kind != LitAtom {
		t.Fatalf("sugar literal = %v", b[1])
	}
	cons, ok := SugarConstraint(b[1].Atom)
	if !ok || cons.Feature != "preceded-by" || cons.Attr != "x" || cons.Value != "Price:" {
		t.Errorf("sugar constraint = %v, %v", cons, ok)
	}
	cons, ok = SugarConstraint(b[2].Atom)
	if !ok || cons.Feature != "max-length" || cons.Value != "18" {
		t.Errorf("numeric sugar = %v, %v", cons, ok)
	}
	// Not sugar: wrong arity or argument shapes.
	if _, ok := SugarConstraint(Atom{Pred: "f", Args: []Term{Variable("x")}}); ok {
		t.Error("one-arg atom is not sugar")
	}
	if _, ok := SugarConstraint(Atom{Pred: "f", Args: []Term{Variable("x"), Variable("y")}}); ok {
		t.Error("two-var atom is not sugar")
	}
	// The sugar must validate and survive a whole-program check.
	prog := MustParse(`Q(d, x) :- pages(d), ext(d, x).
ext(d, x) :- from(d, x), preceded_by(x, "Price:").`)
	if err := Validate(prog, &Schema{Extensional: map[string][]string{"pages": {"d"}}}); err != nil {
		t.Errorf("sugar program should validate: %v", err)
	}
}

func TestParseNegativeNumberAndFloat(t *testing.T) {
	p := MustParse(`T(x) :- r(x, v), v > -42, v < 35.99.`)
	b := p.Rules[0].Body
	if b[1].Cmp.R.Num != -42 || b[2].Cmp.R.Num != 35.99 {
		t.Errorf("numbers = %v, %v", b[1].Cmp.R, b[2].Cmp.R)
	}
}

func TestParseComments(t *testing.T) {
	p := MustParse("// comment\n# another\nT(x) :- r(x). // trailing\n")
	if len(p.Rules) != 1 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
}

func TestRoundTripString(t *testing.T) {
	p := MustParse(figure2Src)
	re, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\nsource:\n%s", err, p.String())
	}
	if re.String() != p.String() {
		t.Errorf("round-trip mismatch:\n%s\nvs\n%s", p.String(), re.String())
	}
}

func TestValidateFigure2(t *testing.T) {
	p := MustParse(figure2Src)
	if err := Validate(p, figure2Schema()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateUnknownPredicate(t *testing.T) {
	p := MustParse(`Q(x) :- nowhere(x).`)
	err := Validate(p, &Schema{})
	if err == nil || !strings.Contains(err.Error(), "unknown predicate") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateUnsafeRule(t *testing.T) {
	// h never appears in the body: unsafe (Section 2.2.2).
	p := MustParse(`e(x, p, h) :- from(x, p), numeric(p) = yes.
Q(x, p, h) :- pages(x), e(x, p, h).`)
	err := Validate(p, &Schema{Extensional: map[string][]string{"pages": {"x"}}})
	if err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateUnboundComparison(t *testing.T) {
	p := MustParse(`Q(x) :- pages(x), y > 5.`)
	if err := Validate(p, &Schema{Extensional: map[string][]string{"pages": {"x"}}}); err == nil {
		t.Fatal("comparison over unbound variable should fail validation")
	}
}

func TestValidateAnnotationTarget(t *testing.T) {
	p := MustParse(`Q(<x>) :- pages(x).`)
	if err := Validate(p, &Schema{Extensional: map[string][]string{"pages": {"x"}}}); err != nil {
		t.Fatalf("valid annotation rejected: %v", err)
	}
}

func TestOrderBodyReordersJoins(t *testing.T) {
	// approxMatch(h, s) appears before schools(s) binds s; ordering must fix it.
	p := MustParse(`Q(x) :- houses(x, h), approxMatch(h, s), schools(s).
houses(x, h) :- pages(x), e(x, h).
schools(s) :- spages(y), e2(y, s).
e(x, h) :- from(x, h).
e2(y, s) :- from(y, s).`)
	schema := &Schema{
		Extensional: map[string][]string{"pages": {"x"}, "spages": {"y"}},
		Functions:   map[string]bool{"approxMatch": true},
	}
	q := p.RulesFor("Q")[0]
	ordered, err := OrderBody(p, schema, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Body[ordered[1]].Atom.Pred != "schools" {
		t.Errorf("body order = %v; approxMatch should come last", ordered)
	}
}

func TestUnfoldFigure2(t *testing.T) {
	p := MustParse(figure2Src)
	u, err := Unfold(p, figure2Schema())
	if err != nil {
		t.Fatal(err)
	}
	// Description rules are consumed; skeleton rules remain.
	if len(u.Rules) != 3 {
		t.Fatalf("unfolded rules = %d:\n%s", len(u.Rules), u)
	}
	houses := u.RulesFor("houses")[0]
	// Body: housePages(x), from(x,p), from(x,a), from(x,h), numeric(p)=yes, numeric(a)=yes.
	if len(houses.Body) != 6 {
		t.Fatalf("houses body = %v", houses.Body)
	}
	nFrom := 0
	for _, l := range houses.Body {
		if l.Kind == LitAtom && l.Atom.Pred == FromPred {
			nFrom++
		}
	}
	if nFrom != 3 {
		t.Errorf("from atoms = %d", nFrom)
	}
	// Annotations must survive unfolding.
	if len(houses.AnnAttrs) != 3 {
		t.Errorf("annotations lost: %v", houses.AnnAttrs)
	}
	if !u.RulesFor("schools")[0].Exists {
		t.Error("existence annotation lost")
	}
	// The unfolded program must still validate.
	if err := Validate(u, figure2Schema()); err != nil {
		t.Fatal(err)
	}
}

func TestUnfoldMultipleDescriptionRules(t *testing.T) {
	p := MustParse(`
T(x, v) :- pages(x), ext(x, v).
ext(x, v) :- from(x, v), numeric(v) = yes.
ext(x, v) :- from(x, v), bold-font(v) = yes.
`)
	u, err := Unfold(p, &Schema{Extensional: map[string][]string{"pages": {"x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(u.RulesFor("T")); got != 2 {
		t.Fatalf("union unfolding produced %d rules, want 2", got)
	}
}

func TestUnfoldFreshVariables(t *testing.T) {
	// The description rule uses a local variable name that clashes with a
	// variable of the calling rule; unfolding must rename it.
	p := MustParse(`
T(x, v, s) :- pages(x), spans(s), ext(x, v).
ext(x, v) :- from(x, s), from(s, v).
`)
	u, err := Unfold(p, &Schema{Extensional: map[string][]string{"pages": {"x"}, "spans": {"s"}}})
	if err != nil {
		t.Fatal(err)
	}
	body := u.RulesFor("T")[0].Body
	for _, l := range body {
		if l.Kind == LitAtom && l.Atom.Pred == FromPred {
			if out := l.Atom.Args[1]; out.Kind == TermVar && out.Var == "s" {
				// from(x, s) must have been renamed: only the call-site v
				// may appear unrenamed as a from output.
				t.Fatalf("variable capture: %v", body)
			}
		}
	}
}

func TestUnfoldArityMismatch(t *testing.T) {
	p := MustParse(`
T(x, v) :- pages(x), ext(x, v).
ext(x, v, w) :- from(x, v), from(x, w).
`)
	if _, err := Unfold(p, nil); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestAttrsAndAddConstraint(t *testing.T) {
	p := MustParse(figure2Src)
	attrs := p.Attrs()
	if len(attrs) != 4 {
		t.Fatalf("attrs = %v", attrs)
	}
	ref := AttrRef{Pred: "extractHouses", Var: "p"}
	if p.HasConstraint(ref, "bold-font") {
		t.Error("constraint should not exist yet")
	}
	if err := p.AddConstraint(ref, "bold-font", "yes"); err != nil {
		t.Fatal(err)
	}
	if !p.HasConstraint(ref, "bold-font") {
		t.Error("constraint not recorded")
	}
	if err := p.AddConstraint(AttrRef{Pred: "nope", Var: "v"}, "numeric", "yes"); err == nil {
		t.Error("AddConstraint to missing rule should fail")
	}
	// The program must still parse/validate after refinement.
	if err := Validate(p, figure2Schema()); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := MustParse(figure2Src)
	c := p.Clone()
	if err := c.AddConstraint(AttrRef{Pred: "extractSchools", Var: "s"}, "in-list", "yes"); err != nil {
		t.Fatal(err)
	}
	if p.HasConstraint(AttrRef{Pred: "extractSchools", Var: "s"}, "in-list") {
		t.Error("Clone leaked mutation to original")
	}
}

func TestClassify(t *testing.T) {
	p := MustParse(figure2Src)
	s := figure2Schema()
	cases := map[string]PredClass{
		"from":          ClassFrom,
		"housePages":    ClassExtensional,
		"approxMatch":   ClassFunction,
		"extractHouses": ClassIE,
		"houses":        ClassIntensional,
		"mystery":       ClassUnknown,
	}
	for pred, want := range cases {
		if got := Classify(p, s, pred); got != want {
			t.Errorf("Classify(%s) = %v, want %v", pred, got, want)
		}
	}
}

// BenchmarkParseProgram parses the largest paper task (T9, the Books
// title join with a price comparison): five rules, two annotated heads.
func BenchmarkParseProgram(b *testing.B) {
	const src = `
amT(x, <t1>, <np>) :- Amazon(x), extractAmazonT(x, t1, np).
bnT(y, <t2>, <bp>) :- Barnes(y), extractBarnesT(y, t2, bp).
T9(t1) :- amT(x, t1, np), bnT(y, t2, bp), similar(t1, t2), np < bp.
extractAmazonT(x, t, np) :- from(x, t), from(x, np).
extractBarnesT(y, t, bp) :- from(y, t), from(y, bp).
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// convergedT8 returns the extraction rule of the Books task T8 as a session
// leaves it once every question is answered — one scan, four from atoms and
// 39 constraints, unfolded into one body — with its program and schema.
func convergedT8(tb testing.TB) (*Program, *Schema, *Rule) {
	tb.Helper()
	p := MustParse(`
amRec(x, <t>, <lp>, <np>, <up>) :- Amazon(x), extractAmazon(x, t, lp, np, up).
T8(t) :- amRec(x, t, lp, np, up), lp = np, up < np.
extractAmazon(x, t, lp, np, up) :- from(x, t), from(x, lp), from(x, np), from(x, up).
`)
	boolean := []string{"bold-font", "italic-font", "underlined", "hyperlinked", "in-list", "in-title", "numeric", "capitalized"}
	// Answers arrive interleaved across the attributes, as a session asks.
	for i, f := range append(boolean, "max-tokens", "preceded-by") {
		for _, v := range []string{"t", "lp", "np", "up"} {
			if v == "t" && f == "capitalized" {
				continue // the one "I do not know" of the task's oracle
			}
			if err := p.AddConstraint(AttrRef{Pred: "extractAmazon", Var: v}, f, fmt.Sprint("v", i)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	s := &Schema{Extensional: map[string][]string{"Amazon": {"x"}}}
	u, err := Unfold(p, s)
	if err != nil {
		tb.Fatal(err)
	}
	r := u.RulesFor("amRec")[0]
	if len(r.Body) != 44 {
		tb.Fatalf("converged T8 body has %d literals, want 44", len(r.Body))
	}
	return u, s, r
}

// refOrderBody is OrderBody as it was before it ordered in place: a copy of
// the body, shrunk from the middle, and a result grown by append.
func refOrderBody(p *Program, s *Schema, r *Rule) ([]Literal, error) {
	bound := map[string]bool{}
	remaining := append([]Literal(nil), r.Body...)
	var out []Literal
	for len(remaining) > 0 {
		pick := -1
		for i, lit := range remaining {
			if IsSelection(p, s, lit) && evaluable(lit, litClass(p, s, lit), bound) {
				pick = i
				break
			}
		}
		for i := 0; pick < 0 && i < len(remaining); i++ {
			if evaluable(remaining[i], litClass(p, s, remaining[i]), bound) {
				pick = i
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("cannot evaluate %q", remaining[0])
		}
		bindLiteral(remaining[pick], litClass(p, s, remaining[pick]), bound)
		out = append(out, remaining[pick])
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return out, nil
}

// TestOrderBodyMatchesReference: the in-place ordering is a permutation of
// the body that places the literals of a converged body exactly where the
// old one did — every constraint right behind the from that binds its
// attribute, in answer order — leaves the rule's body alone, and names the
// same literal when a body cannot be ordered: the first unplaced one in
// body order.
func TestOrderBodyMatchesReference(t *testing.T) {
	p, s, r := convergedT8(t)
	body := fmt.Sprint(r.Body)
	perm, err := OrderBody(p, s, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refOrderBody(p, s, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != len(r.Body) {
		t.Fatalf("order %v holds %d of %d body indexes", perm, len(perm), len(r.Body))
	}
	seen := make([]bool, len(r.Body))
	got := make([]Literal, len(perm))
	for i, j := range perm {
		if j < 0 || j >= len(seen) || seen[j] {
			t.Fatalf("order %v is not a permutation of the body indexes", perm)
		}
		seen[j], got[i] = true, r.Body[j]
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order differs\n got %v\nwant %v", got, want)
	}
	if cap(perm) != len(r.Body) || fmt.Sprint(r.Body) != body {
		t.Fatalf("result capacity %d for %d literals, or the body was reordered in place", cap(perm), len(r.Body))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Kind == LitConstraint && got[i-1].Kind == LitAtom && got[i-1].Atom.Args[1].Var != got[i].Cons.Attr {
			t.Fatalf("%v follows %v: not the from that binds it", got[i], got[i-1])
		}
	}

	unsafe := MustParse(`Q(x) :- pages(x), bold-font(u) = yes, f(v, x), f(u, x).`)
	us := &Schema{Extensional: map[string][]string{"pages": {"x"}}, Functions: map[string]bool{"f": true}}
	_, gerr := OrderBody(unsafe, us, unsafe.Rules[0], nil)
	_, werr := refOrderBody(unsafe, us, unsafe.Rules[0])
	if gerr == nil || werr == nil || !strings.Contains(gerr.Error(), werr.Error()) || !strings.Contains(gerr.Error(), "bold-font(u)") {
		t.Fatalf("error %v, reference %v: want the first unplaced literal, bold-font(u)", gerr, werr)
	}
}

// BenchmarkOrderBody orders the converged T8 body. Every compile does it
// twice per rule (Validate, then the compiler), and a session compiles some
// 590 plans on bodies growing towards this one.
func BenchmarkOrderBody(b *testing.B) {
	p, s, r := convergedT8(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OrderBody(p, s, r, nil); err != nil {
			b.Fatal(err)
		}
	}
}
