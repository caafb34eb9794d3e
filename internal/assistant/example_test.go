package assistant

import (
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/feature"
	"iflex/internal/markup"
	"iflex/internal/text"
)

// exampleDoc builds the houses-style test page and locates a substring.
func exampleSpan(t *testing.T, d *text.Document, sub string) text.Span {
	t.Helper()
	i := strings.Index(d.Text(), sub)
	if i < 0 {
		t.Fatalf("substring %q not in %q", sub, d.Text())
	}
	return d.Span(i, i+len(sub))
}

func TestExampleOracleBooleanAnswers(t *testing.T) {
	reg := feature.NewRegistry()
	d := markup.MustParse("h", "Price: <i>619000</i><br>School: <b>Basktall HS</b>")
	price := exampleSpan(t, d, "619000")
	school := exampleSpan(t, d, "Basktall HS")
	o := NewExampleOracle(reg, map[alog.AttrRef][]text.Span{
		{Pred: "ext", Var: "p"}: {price},
		{Pred: "ext", Var: "s"}: {school},
	})
	ask := func(attr, feat string, kind feature.Kind) Answer {
		return o.Answer(Question{Attr: alog.AttrRef{Pred: "ext", Var: attr}, Feature: feat, Kind: kind})
	}
	if got := ask("p", "italic-font", feature.KindBoolean); got.Value != feature.DistinctYes {
		t.Errorf("italic(p) = %+v", got)
	}
	if got := ask("p", "numeric", feature.KindBoolean); got.Value != feature.Yes && got.Value != feature.DistinctYes {
		t.Errorf("numeric(p) = %+v", got)
	}
	if got := ask("p", "bold-font", feature.KindBoolean); got.Value != feature.No {
		t.Errorf("bold(p) = %+v", got)
	}
	if got := ask("s", "bold-font", feature.KindBoolean); got.Value != feature.DistinctYes {
		t.Errorf("bold(s) = %+v", got)
	}
	// No example for this attribute: don't know.
	if got := ask("missing", "bold-font", feature.KindBoolean); got.Known {
		t.Errorf("no-example answer = %+v", got)
	}
}

func TestExampleOracleLabelInference(t *testing.T) {
	reg := feature.NewRegistry()
	d1 := markup.MustParse("h1", "Price: <i>619000</i><br>rest")
	d2 := markup.MustParse("h2", "Price: <i>351000</i><br>rest")
	o := NewExampleOracle(reg, map[alog.AttrRef][]text.Span{
		{Pred: "ext", Var: "p"}: {exampleSpan(t, d1, "619000"), exampleSpan(t, d2, "351000")},
	})
	ans := o.Answer(Question{Attr: alog.AttrRef{Pred: "ext", Var: "p"}, Feature: "preceded-by", Kind: feature.KindParametric})
	if !ans.Known || ans.Value != "Price:" {
		t.Errorf("preceded-by = %+v", ans)
	}
	// Conflicting labels across examples: don't know.
	d3 := markup.MustParse("h3", "Cost: <i>42</i>")
	o.AddExample(alog.AttrRef{Pred: "ext", Var: "p"}, exampleSpan(t, d3, "42"))
	ans = o.Answer(Question{Attr: alog.AttrRef{Pred: "ext", Var: "p"}, Feature: "preceded-by", Kind: feature.KindParametric})
	if ans.Known {
		t.Errorf("conflicting labels should be unknown, got %+v", ans)
	}
}

// TestExampleOracleLabelVerifies: the label is read off the page only in a
// form preceded-by verifies on every example. With "Our  price:" spelt with
// two spaces, the folded "Our price:" does not precede the prices, so the
// longest label that does, "price:", is inferred.
func TestExampleOracleLabelVerifies(t *testing.T) {
	reg := feature.NewRegistry()
	exs := []text.Span{
		exampleSpan(t, markup.MustParse("h1", "Our  price: <i>619000</i><br>rest"), "619000"),
		exampleSpan(t, markup.MustParse("h2", "<b>Title</b><br>Our  price: <i>351000</i>"), "351000"),
	}
	o := NewExampleOracle(reg, map[alog.AttrRef][]text.Span{{Pred: "ext", Var: "p"}: exs})
	ans := o.Answer(Question{Attr: alog.AttrRef{Pred: "ext", Var: "p"}, Feature: "preceded-by", Kind: feature.KindParametric})
	if !ans.Known || ans.Value != "price:" {
		t.Fatalf("preceded-by = %+v, want price:", ans)
	}
	f, _ := reg.Lookup("preceded-by")
	for _, e := range exs {
		if ok, err := f.Verify(e, ans.Value); err != nil || !ok {
			t.Errorf("preceded-by=%q does not verify %q: %v", ans.Value, e.Text(), err)
		}
	}
}

func TestExampleOracleMixedExamplesUnknown(t *testing.T) {
	reg := feature.NewRegistry()
	d := markup.MustParse("h", "<b>bold one</b> and plain two")
	o := NewExampleOracle(reg, map[alog.AttrRef][]text.Span{
		{Pred: "ext", Var: "v"}: {exampleSpan(t, d, "bold one"), exampleSpan(t, d, "plain two")},
	})
	ans := o.Answer(Question{Attr: alog.AttrRef{Pred: "ext", Var: "v"}, Feature: "bold-font", Kind: feature.KindBoolean})
	if ans.Known {
		t.Errorf("mixed bold examples should answer unknown, got %+v", ans)
	}
}

func TestExampleOracleBounds(t *testing.T) {
	reg := feature.NewRegistry()
	d := markup.MustParse("h", "title: Great Database Book here")
	o := NewExampleOracle(reg, map[alog.AttrRef][]text.Span{
		{Pred: "ext", Var: "t"}: {exampleSpan(t, d, "Great Database Book")},
	})
	ans := o.Answer(Question{Attr: alog.AttrRef{Pred: "ext", Var: "t"}, Feature: "max-tokens", Kind: feature.KindParametric})
	if !ans.Known || ans.Value != "8" { // 3 tokens *2 + 2
		t.Errorf("max-tokens = %+v", ans)
	}
	ans = o.Answer(Question{Attr: alog.AttrRef{Pred: "ext", Var: "t"}, Feature: "min-value", Kind: feature.KindParametric})
	if ans.Known {
		t.Errorf("min-value should be unknown, got %+v", ans)
	}
}

// A full session driven purely by marked-up examples must converge and
// keep the correct answers.
func TestSessionWithExampleOracle(t *testing.T) {
	env := testEnv()
	prog := alog.MustParse(testProg)
	// Mark the price and school of the first page as examples.
	var priceEx, schoolEx text.Span
	for _, tp := range env.Tables["pages"].Tuples {
		d := tp.Cells[0].Assigns[0].Span.Doc()
		if d.ID() == "h2" {
			priceEx = exampleSpan(t, d, "619000")
			schoolEx = exampleSpan(t, d, "Basktall HS")
		}
	}
	oracle := NewExampleOracle(env.Features, map[alog.AttrRef][]text.Span{
		{Pred: "ext", Var: "p"}: {priceEx},
		{Pred: "ext", Var: "s"}: {schoolEx},
	})
	s := NewSession(env, prog, oracle, Config{Strategy: Simulation{}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Truth: h2 (619000) and h3 (725000) exceed 500000.
	if res.FinalTuples < 2 {
		t.Errorf("final tuples = %d\n%s", res.FinalTuples, res.Final)
	}
	covered := 0
	for _, tp := range res.Final.Tuples {
		if tp.Cells[1].CoversTextValue("619000") || tp.Cells[1].CoversTextValue("725000") {
			covered++
		}
	}
	if covered < 2 {
		t.Errorf("correct prices lost: %s", res.Final)
	}
}
