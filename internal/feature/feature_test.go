package feature

import (
	"slices"
	"strings"
	"testing"

	"iflex/internal/markup"
	"iflex/internal/text"
)

var reg = NewRegistry()

func feat(t *testing.T, name string) Feature {
	t.Helper()
	f, err := reg.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func verify(t *testing.T, name string, s text.Span, v string) bool {
	t.Helper()
	ok, err := feat(t, name).Verify(s, v)
	if err != nil {
		t.Fatalf("Verify(%s, %q): %v", name, v, err)
	}
	return ok
}

func refine(t *testing.T, name string, s text.Span, v string) []text.Assignment {
	t.Helper()
	as, err := feat(t, name).Refine(s, v)
	if err != nil {
		t.Fatalf("Refine(%s, %q): %v", name, v, err)
	}
	return as
}

func assignTexts(as []text.Assignment) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.String())
	}
	return out
}

func TestRegistryContents(t *testing.T) {
	for _, name := range []string{
		"numeric", "bold-font", "italic-font", "underlined", "hyperlinked",
		"in-list", "in-title", "preceded-by", "followed-by", "min-value",
		"max-value", "max-length", "min-length", "max-tokens", "min-tokens",
		"starts-with", "ends-with", "matches", "capitalized",
		"prec-label-contains", "prec-label-max-dist", "in-first-half",
	} {
		if _, err := reg.Lookup(name); err != nil {
			t.Errorf("missing builtin %s: %v", name, err)
		}
	}
	if _, err := reg.Lookup("no-such-feature"); err == nil {
		t.Error("lookup of unknown feature should fail")
	}
	if len(reg.Names()) < 20 {
		t.Errorf("expected >= 20 builtins, got %d", len(reg.Names()))
	}
}

func TestNumericVerify(t *testing.T) {
	d := markup.MustParse("d", "Price: 351000 or $4,700.50 but not words")
	num := d.Span(7, 13)
	if !verify(t, "numeric", num, Yes) {
		t.Error("351000 should verify numeric=yes")
	}
	if verify(t, "numeric", num, No) {
		t.Error("351000 should fail numeric=no")
	}
	word := d.Span(14, 16) // "or"
	if verify(t, "numeric", word, Yes) || !verify(t, "numeric", word, No) {
		t.Error("word numeric values wrong")
	}
}

func TestNumericRefine(t *testing.T) {
	d := markup.MustParse("d", "Sqft: 2750 price 351000 nice")
	as := refine(t, "numeric", d.WholeSpan(), Yes)
	if len(as) != 2 {
		t.Fatalf("numeric refine = %v", assignTexts(as))
	}
	for _, a := range as {
		if a.Mode != text.Exact {
			t.Errorf("numeric refine should be exact: %v", a)
		}
	}
	if as[0].Span.Text() != "2750" || as[1].Span.Text() != "351000" {
		t.Errorf("numeric tokens = %v", assignTexts(as))
	}
}

func TestNumericRefineNo(t *testing.T) {
	d := markup.MustParse("d", "alpha 42 beta gamma")
	// numeric = no widens: a span mixing words and a number is not numeric,
	// so the whole page stays one contain assignment...
	as := refine(t, "numeric", d.WholeSpan(), No)
	if len(as) != 1 || as[0].Mode != text.Contain || as[0].Span != d.WholeSpan() {
		t.Fatalf("numeric=no refine = %v", assignTexts(as))
	}
	// ...and only a span that is one numeric token refines to nothing.
	if as := refine(t, "numeric", d.Span(5, 9), No); len(as) != 0 {
		t.Fatalf("numeric=no refine of %q = %v", d.Span(5, 9).Text(), assignTexts(as))
	}
}

func TestMinMaxValue(t *testing.T) {
	d := markup.MustParse("d", "351000 619000 4700")
	whole := d.WholeSpan()
	as := refine(t, "min-value", whole, "500000")
	if len(as) != 1 || as[0].Span.Text() != "619000" {
		t.Fatalf("min-value refine = %v", assignTexts(as))
	}
	as = refine(t, "max-value", whole, "5000")
	if len(as) != 1 || as[0].Span.Text() != "4700" {
		t.Fatalf("max-value refine = %v", assignTexts(as))
	}
	if !verify(t, "min-value", d.Span(7, 13), "500000") {
		t.Error("619000 >= 500000 should verify")
	}
	if verify(t, "min-value", d.Span(0, 6), "500000") {
		t.Error("351000 >= 500000 should fail")
	}
	if _, err := feat(t, "min-value").Verify(whole, "not-a-number"); err == nil {
		t.Error("non-numeric bound should error")
	}
}

func TestBoldVerifyAndRefine(t *testing.T) {
	d := markup.MustParse("d", "plain <b>Basktall HS</b> plain <b>Franklin</b> end")
	boldSpans := d.MarksOf(text.MarkBold)
	if len(boldSpans) != 2 {
		t.Fatalf("setup: %d bold marks", len(boldSpans))
	}
	b0 := d.Span(boldSpans[0].Start, boldSpans[0].End)
	if !verify(t, "bold-font", b0, Yes) {
		t.Error("bold span should verify bold=yes")
	}
	if !verify(t, "bold-font", b0, DistinctYes) {
		t.Error("maximal bold span should verify distinct-yes")
	}
	sub := b0.Sub(b0.Start(), b0.Start()+8) // "Basktall"
	if !verify(t, "bold-font", sub, Yes) {
		t.Error("sub-span of bold should verify yes")
	}
	if verify(t, "bold-font", sub, DistinctYes) {
		t.Error("non-maximal bold span should fail distinct-yes")
	}
	plain := d.Span(0, 5)
	if !verify(t, "bold-font", plain, No) || verify(t, "bold-font", plain, Yes) {
		t.Error("plain span bold values wrong")
	}

	as := refine(t, "bold-font", d.WholeSpan(), Yes)
	if len(as) != 2 || as[0].Mode != text.Contain {
		t.Fatalf("bold refine yes = %v", assignTexts(as))
	}
	as = refine(t, "bold-font", d.WholeSpan(), DistinctYes)
	if len(as) != 2 || as[0].Mode != text.Exact || as[0].Span.Text() != "Basktall HS" {
		t.Fatalf("bold refine distinct-yes = %v", assignTexts(as))
	}
	as = refine(t, "bold-font", d.WholeSpan(), No)
	joined := strings.Join(assignTexts(as), " ")
	if strings.Contains(joined, "Basktall") || !strings.Contains(joined, "plain") {
		t.Fatalf("bold refine no = %v", assignTexts(as))
	}
}

// The paper's italics example (Section 4.2): "Price: 35.99. Only two left."
// with price italic. italics=yes refines to contain("Price: 35.99."); with
// only 35.99 italic, italics=distinct-yes refines to exact("35.99.").
func TestPaperItalicsExample(t *testing.T) {
	d1 := markup.MustParse("p1", "<i>Price: 35.99.</i> Only two left.")
	as := refine(t, "italic-font", d1.WholeSpan(), Yes)
	if len(as) != 1 || as[0].Mode != text.Contain || as[0].Span.Text() != "Price: 35.99." {
		t.Fatalf("refine yes = %v", assignTexts(as))
	}
	d2 := markup.MustParse("p2", "Price: <i>35.99.</i> Only two left.")
	as = refine(t, "italic-font", d2.WholeSpan(), DistinctYes)
	if len(as) != 1 || as[0].Mode != text.Exact || as[0].Span.Text() != "35.99." {
		t.Fatalf("refine distinct-yes = %v", assignTexts(as))
	}
}

func TestMarkFeatureMergesAdjacentMarks(t *testing.T) {
	d := markup.MustParse("d", "<b>one</b><b> two</b> rest")
	as := refine(t, "bold-font", d.WholeSpan(), Yes)
	if len(as) != 1 || as[0].Span.NormText() != "one two" {
		t.Fatalf("adjacent bold marks not merged: %v", assignTexts(as))
	}
}

func TestInListAndTitle(t *testing.T) {
	d := markup.MustParse("d", "<title>Top Movies</title><ul><li>The Godfather</li><li>Casablanca</li></ul>")
	as := refine(t, "in-list", d.WholeSpan(), Yes)
	if len(as) != 2 {
		t.Fatalf("in-list refine = %v", assignTexts(as))
	}
	as = refine(t, "in-title", d.WholeSpan(), Yes)
	if len(as) != 1 || as[0].Span.NormText() != "Top Movies" {
		t.Fatalf("in-title refine = %v", assignTexts(as))
	}
}

func TestPrecededBy(t *testing.T) {
	d := markup.MustParse("d", "<p>Sqft: 2750</p><p>High school: Vanhise High</p>")
	body := d.Text()
	start := strings.Index(body, "Vanhise")
	vh := d.Span(start, start+len("Vanhise High"))
	if !verify(t, "preceded-by", vh, "High school:") {
		t.Error("Vanhise High should be preceded by 'High school:'")
	}
	if verify(t, "preceded-by", vh, "Sqft:") {
		t.Error("wrong label accepted")
	}
	as := refine(t, "preceded-by", d.WholeSpan(), "High school:")
	if len(as) != 1 || as[0].Span.NormText() != "Vanhise High" {
		t.Fatalf("preceded-by refine = %v", assignTexts(as))
	}
}

func TestFollowedBy(t *testing.T) {
	d := markup.MustParse("d", "<p>4700 sqft total</p>")
	body := d.Text()
	start := strings.Index(body, "4700")
	sp := d.Span(start, start+4)
	if !verify(t, "followed-by", sp, "sqft") {
		t.Error("4700 should be followed by 'sqft'")
	}
	as := refine(t, "followed-by", d.WholeSpan(), "sqft")
	if len(as) != 1 || as[0].Span.NormText() != "4700" {
		t.Fatalf("followed-by refine = %v", assignTexts(as))
	}
}

func TestMaxLength(t *testing.T) {
	d := markup.MustParse("d", "aa bb cc ddddddddddd")
	whole := d.WholeSpan()
	if !verify(t, "max-length", d.Span(0, 5), "5") || verify(t, "max-length", whole, "5") {
		t.Error("max-length verify wrong")
	}
	as := refine(t, "max-length", whole, "5")
	// Maximal runs of length <= 5: "aa bb" and "bb cc"; the long token is excluded.
	joined := strings.Join(assignTexts(as), " ")
	if strings.Contains(joined, "ddd") {
		t.Fatalf("max-length refine includes long token: %v", assignTexts(as))
	}
	if len(as) == 0 {
		t.Fatal("max-length refine empty")
	}
	// Coverage: every token-aligned sub-span of length <= 5 is covered.
	whole.SubSpans(func(s text.Span) bool {
		if s.Len() <= 5 {
			covered := false
			for _, a := range as {
				if a.Covers(s) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("sub-span %q (len %d) not covered", s.Text(), s.Len())
			}
		}
		return true
	})
}

func TestMinLengthAndTokens(t *testing.T) {
	d := markup.MustParse("d", "one two three")
	whole := d.WholeSpan()
	if !verify(t, "min-length", whole, "10") || verify(t, "min-length", d.Span(0, 3), "10") {
		t.Error("min-length verify wrong")
	}
	if !verify(t, "min-tokens", whole, "3") || verify(t, "min-tokens", whole, "4") {
		t.Error("min-tokens verify wrong")
	}
	as := refine(t, "max-tokens", whole, "2")
	if len(as) != 2 { // windows "one two" and "two three"
		t.Fatalf("max-tokens refine = %v", assignTexts(as))
	}
	as = refine(t, "max-tokens", whole, "5")
	if len(as) != 1 || as[0].Span.NormText() != "one two three" {
		t.Fatalf("max-tokens(5) refine = %v", assignTexts(as))
	}
}

func TestPatternFeatures(t *testing.T) {
	d := markup.MustParse("d", "SIGMOD 2005 was in Baltimore")
	conf := d.Span(0, 11) // "SIGMOD 2005"
	if !verify(t, "starts-with", conf, "[A-Z][A-Z]+") {
		t.Error("starts-with failed")
	}
	if !verify(t, "ends-with", conf, `19\d\d|20\d\d`) {
		t.Error("ends-with failed")
	}
	if !verify(t, "matches", d.Span(7, 11), `\d{4}`) {
		t.Error("matches failed")
	}
	if verify(t, "matches", conf, `\d{4}`) {
		t.Error("matches should require full match")
	}
	as := refine(t, "matches", d.WholeSpan(), `\d{4}`)
	if len(as) != 1 || as[0].Span.Text() != "2005" {
		t.Fatalf("matches refine = %v", assignTexts(as))
	}
	if _, err := feat(t, "matches").Verify(conf, "("); err == nil {
		t.Error("bad pattern should error")
	}
}

func TestStartsWithRefineCoverage(t *testing.T) {
	d := markup.MustParse("d", "noise VLDB 2001 proceedings")
	whole := d.WholeSpan()
	as := refine(t, "starts-with", whole, "[A-Z]{3,}")
	// Every sub-span verifying starts-with must be covered.
	whole.SubSpans(func(s text.Span) bool {
		ok, _ := feat(t, "starts-with").Verify(s, "[A-Z]{3,}")
		if ok {
			covered := false
			for _, a := range as {
				if a.Covers(s) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("verifying sub-span %q not covered by %v", s.Text(), assignTexts(as))
			}
		}
		return true
	})
}

func TestCapitalized(t *testing.T) {
	d := markup.MustParse("d", "The Godfather is great")
	if !verify(t, "capitalized", d.Span(0, 13), Yes) {
		t.Error("The Godfather should be capitalized")
	}
	if verify(t, "capitalized", d.WholeSpan(), Yes) {
		t.Error("whole span is not all capitalized")
	}
	as := refine(t, "capitalized", d.WholeSpan(), Yes)
	if len(as) != 1 || as[0].Span.Text() != "The Godfather" {
		t.Fatalf("capitalized refine = %v", assignTexts(as))
	}
	as = refine(t, "capitalized", d.WholeSpan(), No)
	if len(as) != 1 || as[0].Mode != text.Contain {
		t.Fatalf("capitalized=no refine = %v", assignTexts(as))
	}
}

func TestPrecLabel(t *testing.T) {
	d := markup.MustParse("d", "<h2>Panel Members</h2><p>Alice Smith</p><p>Bob Jones</p><h2>Program</h2><p>Carol White</p>")
	body := d.Text()
	alice := d.Span(strings.Index(body, "Alice"), strings.Index(body, "Alice")+len("Alice Smith"))
	carol := d.Span(strings.Index(body, "Carol"), strings.Index(body, "Carol")+len("Carol White"))
	if !verify(t, "prec-label-contains", alice, "panel") {
		t.Error("Alice should be under the Panel header")
	}
	if verify(t, "prec-label-contains", carol, "panel") {
		t.Error("Carol is under Program, not Panel")
	}
	as := refine(t, "prec-label-contains", d.WholeSpan(), "panel")
	if len(as) != 1 {
		t.Fatalf("prec-label-contains refine = %v", assignTexts(as))
	}
	if got := as[0].Span.NormText(); !strings.Contains(got, "Alice") || strings.Contains(got, "Carol") {
		t.Fatalf("panel section = %q", got)
	}
	if !verify(t, "prec-label-max-dist", alice, "700") {
		t.Error("Alice within 700 bytes of header")
	}
	if verify(t, "prec-label-max-dist", alice, "0") {
		t.Error("distance 0 should fail")
	}
}

func TestInFirstHalf(t *testing.T) {
	d := markup.MustParse("d", "early words come first and then later words come last here")
	first := d.Span(0, 5)
	last := d.Span(d.Len()-4, d.Len())
	if !verify(t, "in-first-half", first, Yes) || verify(t, "in-first-half", last, Yes) {
		t.Error("in-first-half verify wrong")
	}
	as := refine(t, "in-first-half", d.WholeSpan(), Yes)
	if len(as) != 1 || as[0].Span.End() > d.Len()/2 {
		t.Fatalf("in-first-half refine = %v", assignTexts(as))
	}
}

func TestBadValuesError(t *testing.T) {
	d := markup.MustParse("d", "word")
	s := d.WholeSpan()
	for _, name := range []string{"numeric", "bold-font", "capitalized", "in-first-half"} {
		if _, err := feat(t, name).Verify(s, "sideways"); err == nil {
			t.Errorf("%s.Verify with bad value should error", name)
		}
		if _, err := feat(t, name).Refine(s, "sideways"); err == nil {
			t.Errorf("%s.Refine with bad value should error", name)
		}
	}
	if _, err := feat(t, "preceded-by").Verify(s, ""); err == nil {
		t.Error("empty preceded-by label should error")
	}
	if _, err := feat(t, "max-length").Verify(s, "-3"); err == nil {
		t.Error("negative max-length should error")
	}
}

func TestCustomFeatureRegistration(t *testing.T) {
	r := NewRegistry()
	r.Register(markFeature("shouty", text.MarkBold))
	if _, err := r.Lookup("shouty"); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterRejectsDuplicate: a deployment feature named like a built-in
// does not silently replace it; registering the name again panics. (The
// built-ins themselves have no duplicate, or NewRegistry would panic.)
func TestRegisterRejectsDuplicate(t *testing.T) {
	r := NewRegistry()
	impostor := markFeature("bold-font", text.MarkItalic)
	defer func() {
		if recover() == nil {
			t.Fatal("registering bold-font a second time did not panic")
		}
		if f, _ := r.Lookup("bold-font"); f == impostor {
			t.Fatal("the duplicate replaced the built-in bold-font")
		}
	}()
	r.Register(impostor)
}

// Property-style check: for the mark features and a generated doc, Refine
// output covers exactly the sub-spans Verify accepts for value "yes".
func TestRefineVerifyConsistencyBold(t *testing.T) {
	d := markup.MustParse("d", "aa <b>bb cc</b> dd <b>ee</b> ff gg")
	whole := d.WholeSpan()
	as := refine(t, "bold-font", whole, Yes)
	whole.SubSpans(func(s text.Span) bool {
		ok, _ := feat(t, "bold-font").Verify(s, Yes)
		covered := false
		for _, a := range as {
			if a.Covers(s) {
				covered = true
				break
			}
		}
		if ok != covered {
			t.Errorf("span %q: verify=%v covered=%v", s.Text(), ok, covered)
		}
		return true
	})
}

func TestLinkToContains(t *testing.T) {
	d := markup.MustParse("d", `See <a href="http://imdb.com/title/tt1">The Godfather</a> and <a href="http://example.org/x">other</a> text`)
	body := d.Text()
	g := d.Span(strings.Index(body, "The Godfather"), strings.Index(body, "The Godfather")+len("The Godfather"))
	if !verify(t, "link-to-contains", g, "imdb.com") {
		t.Error("linked span should verify its target")
	}
	if verify(t, "link-to-contains", g, "example.org") {
		t.Error("wrong target accepted")
	}
	plain := d.Span(0, 3)
	if verify(t, "link-to-contains", plain, "imdb.com") {
		t.Error("unlinked span accepted")
	}
	as := refine(t, "link-to-contains", d.WholeSpan(), "imdb")
	if len(as) != 1 || as[0].Span.NormText() != "The Godfather" {
		t.Fatalf("refine = %v", assignTexts(as))
	}
	if _, err := feat(t, "link-to-contains").Verify(g, ""); err == nil {
		t.Error("empty parameter should error")
	}
}

func TestMarkupHrefVariants(t *testing.T) {
	cases := map[string]string{
		`<a href="http://x/y">t</a>`:  "http://x/y",
		`<a href='http://q'>t</a>`:    "http://q",
		`<a href=http://bare>t</a>`:   "http://bare",
		`<a class="c" href="u">t</a>`: "u",
		`<a>t</a>`:                    "",
	}
	for src, want := range cases {
		d := markup.MustParse("d", src)
		links := d.Links()
		if want == "" {
			if len(links) != 0 {
				t.Errorf("%s: links = %v", src, links)
			}
			continue
		}
		if len(links) != 1 || links[0].Target != want {
			t.Errorf("%s: links = %v, want target %q", src, links, want)
		}
	}
}

func TestHyperlinkedAndUnderlined(t *testing.T) {
	d := markup.MustParse("d", `plain <u>low line</u> and <a href="u">anchor text</a> tail`)
	as := refine(t, "underlined", d.WholeSpan(), Yes)
	if len(as) != 1 || as[0].Span.NormText() != "low line" {
		t.Fatalf("underlined refine = %v", assignTexts(as))
	}
	as = refine(t, "hyperlinked", d.WholeSpan(), DistinctYes)
	if len(as) != 1 || as[0].Mode != text.Exact || as[0].Span.NormText() != "anchor text" {
		t.Fatalf("hyperlinked refine = %v", assignTexts(as))
	}
}

func TestEndsWithRefineCoverage(t *testing.T) {
	d := markup.MustParse("d", "proceedings of VLDB 2001 in Rome")
	whole := d.WholeSpan()
	pat := `19\d\d|20\d\d`
	as := refine(t, "ends-with", whole, pat)
	whole.SubSpans(func(s text.Span) bool {
		ok, _ := feat(t, "ends-with").Verify(s, pat)
		if ok {
			covered := false
			for _, a := range as {
				if a.Covers(s) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("verifying sub-span %q not covered", s.Text())
			}
		}
		return true
	})
}

func TestMinLengthRefine(t *testing.T) {
	d := markup.MustParse("d", "tiny but quite long run of words")
	as := refine(t, "min-length", d.WholeSpan(), "10")
	if len(as) != 1 || as[0].Mode != text.Contain {
		t.Fatalf("min-length refine = %v", assignTexts(as))
	}
	// A span shorter than the bound refines to nothing.
	as = refine(t, "min-length", d.Span(0, 4), "10")
	if len(as) != 0 {
		t.Fatalf("short span refine = %v", assignTexts(as))
	}
}

func TestMinTokensRefine(t *testing.T) {
	d := markup.MustParse("d", "one two three")
	as := refine(t, "min-tokens", d.WholeSpan(), "2")
	if len(as) != 1 {
		t.Fatalf("min-tokens refine = %v", assignTexts(as))
	}
	as = refine(t, "min-tokens", d.Span(0, 3), "2")
	if len(as) != 0 {
		t.Fatalf("min-tokens on 1 token = %v", assignTexts(as))
	}
}

func TestNumericDistinctYes(t *testing.T) {
	d := markup.MustParse("d", "42 fish")
	if !verify(t, "numeric", d.Span(0, 2), DistinctYes) {
		t.Error("distinct-yes should behave like yes for numeric")
	}
	as := refine(t, "numeric", d.WholeSpan(), DistinctYes)
	if len(as) != 1 || as[0].Span.Text() != "42" {
		t.Fatalf("refine = %v", assignTexts(as))
	}
}

func TestPrecLabelMaxDistRefine(t *testing.T) {
	d := markup.MustParse("d", "<h2>Panel</h2><p>Alice Smith and later on more names beyond</p>")
	as := refine(t, "prec-label-max-dist", d.WholeSpan(), "15")
	if len(as) != 1 {
		t.Fatalf("refine = %v", assignTexts(as))
	}
	if got := as[0].Span.NormText(); !strings.HasPrefix(got, "Alice") || strings.Contains(got, "beyond") {
		t.Errorf("region = %q", got)
	}
	if _, err := feat(t, "prec-label-max-dist").Refine(d.WholeSpan(), "x"); err == nil {
		t.Error("non-numeric distance should error")
	}
}

func TestInFirstHalfRefineNo(t *testing.T) {
	d := markup.MustParse("d", "front words here and back words there")
	as := refine(t, "in-first-half", d.WholeSpan(), No)
	if len(as) != 1 {
		t.Fatalf("refine(no) = %v", assignTexts(as))
	}
}

func TestFollowedByVerifyMiss(t *testing.T) {
	d := markup.MustParse("d", "100 units")
	if verify(t, "followed-by", d.Span(0, 3), "dollars") {
		t.Error("wrong following label accepted")
	}
}

func TestOccurrencesSelfOverlap(t *testing.T) {
	// Overlapping occurrences must all be reported: "aa" occurs at 0 and 1
	// in "aaa". A scanner that resumes past the end of each match would
	// find only the first.
	d := markup.MustParse("d", "aaa")
	occs := occurrences(nil, d, "aa", 0, 3)
	if want := []byteRange{{0, 2}, {1, 3}}; !slices.Equal(occs, want) {
		t.Fatalf("occurrences(aa, aaa) = %v, want %v", occs, want)
	}
}

func TestOccurrencesCaseAndWindow(t *testing.T) {
	d := markup.MustParse("d", "Beds: 3\nBEDS: 4")
	// Case-insensitive across the whole document...
	if got := occurrences(nil, d, "beds", 0, d.Len()); len(got) != 2 {
		t.Fatalf("occurrences(beds) = %v, want 2 matches", got)
	}
	// ...and offsets stay in document coordinates inside a sub-window.
	got := occurrences(nil, d, "beds", 8, d.Len())
	if len(got) != 1 || got[0] != (byteRange{8, 12}) {
		t.Fatalf("windowed occurrences = %v, want [{8 12}]", got)
	}
	// A case mapping that changes byte length ("İ" lowers to one byte)
	// folds rune by rune, offsets still the document's.
	d = markup.MustParse("d", "İSTANBUL: 5 and istanbul: 6")
	if got := occurrences(nil, d, "istanbul:", 0, d.Len()); !slices.Equal(got, []byteRange{{0, 10}, {17, 26}}) {
		t.Fatalf("folded occurrences = %v, want [{0 10} {17 26}]", got)
	}
}
