package feature

import (
	"regexp"
	"slices"
	"testing"

	"iflex/internal/markup"
	"iflex/internal/text"
)

// coveragePages are small pages with marks, a link, headers, numbers,
// double spaces (one inside a label) and a line break inside a list item.
var coveragePages = []string{
	"<h2>Venue</h2>Madison Wisconsin<p>Price:  120 in Madison</p><p>VLDB 2001 proceedings</p>",
	"<title>Houses for sale</title><ul><li><b>Price:</b> 351,000 in\nMadison</li><li>Beds: 3</li></ul><p>See <a href=\"http://imdb.com/x\">The Godfather</a> now</p>",
	"<h1>Panel</h1><p><i>Alice  Smith</i>, chair</p><h3>Program</h3><p>Bob <u>Jones</u> $45.00</p>",
	"<ul><li><u>Databases, Volume 2</u><br>Our  price: $45</li></ul>",
}

// coverageValues lists the values tried per builtin feature.
func coverageValues(t *testing.T, name string) []string {
	switch name {
	case "min-value", "max-value":
		return []string{"100", "2001"}
	case "min-length", "max-length":
		return []string{"5", "12"}
	case "min-tokens", "max-tokens":
		return []string{"1", "2"}
	case "starts-with", "ends-with", "matches":
		return []string{"[0-9]+", "Price: [0-9]+", "[A-Z][a-z]+"}
	case "preceded-by", "followed-by":
		return []string{"Price:", "in", "Our price:"}
	case "prec-label-contains":
		return []string{"venue", "panel"}
	case "prec-label-max-dist":
		return []string{"3", "40"}
	case "link-to-contains":
		return []string{"imdb"}
	}
	if feat(t, name).Kind() == KindBoolean {
		return []string{Yes, No, DistinctYes}
	}
	t.Fatalf("no coverage values for parametric feature %s", name)
	return nil
}

// TestRefineCoversVerify holds every builtin feature to the covering
// contract on whole pages: each token-aligned sub-span Verify accepts is
// covered by an assignment Refine(whole page) returns.
func TestRefineCoversVerify(t *testing.T) {
	for pi, src := range coveragePages {
		d := markup.MustParse("cov", src)
		whole := d.WholeSpan()
		for _, name := range reg.Names() {
			f := feat(t, name)
			for _, v := range coverageValues(t, name) {
				as := refine(t, name, whole, v)
				whole.SubSpans(func(sub text.Span) bool {
					if ok, err := f.Verify(sub, v); err != nil || !ok {
						return true
					}
					for _, a := range as {
						if a.Covers(sub) {
							return true
						}
					}
					t.Errorf("page %d: %s=%q verifies %q, which Refine(page) = %v does not cover",
						pi, name, v, sub.Text(), assignTexts(as))
					return true
				})
			}
		}
	}
}

// FuzzRefineCoversVerify holds every builtin feature to the covering
// contract on a page and a token-aligned span s of at most 12 tokens: each
// token-aligned sub-span of s that Verify accepts is covered by an
// assignment Refine(s) returns. Each feature tries the values of
// TestRefineCoversVerify, and the label features also the fuzzed label,
// as a label and quoted as a pattern. Seeds are the Books and DBLife record
// pages of FuzzHereditary (testdata/fuzz).
func FuzzRefineCoversVerify(f *testing.F) {
	f.Add("<li><u>Databases, Volume 2</u><br>Our  price: $45</li>", uint16(0), uint16(8), "Our price:")
	f.Fuzz(func(t *testing.T, src string, start, width uint16, label string) {
		d, err := markup.Parse("fuzz", src)
		if err != nil || len(d.Tokens()) == 0 {
			return
		}
		toks := d.Tokens()
		lo := int(start) % len(toks)
		hi := lo + 1 + int(width)%min(12, len(toks)-lo)
		s := d.Span(toks[lo].Start, toks[hi-1].End)
		for _, name := range reg.Names() {
			ft := feat(t, name)
			vals := coverageValues(t, name)
			switch name {
			case "preceded-by", "followed-by", "prec-label-contains", "link-to-contains":
				vals = append(vals, label)
			case "starts-with", "ends-with", "matches":
				vals = append(vals, regexp.QuoteMeta(label), `^[A-Z]`, `[0-9]$`, `\w+ \w+`)
			}
			for _, v := range vals {
				as, err := ft.Refine(s, v)
				if err != nil {
					continue // a value the feature rejects, as Verify does
				}
				s.SubSpans(func(sub text.Span) bool {
					if ok, _ := ft.Verify(sub, v); ok && !slices.ContainsFunc(as, func(a text.Assignment) bool { return a.Covers(sub) }) {
						t.Fatalf("%s=%q verifies %q, which Refine(%q) = %v does not cover", name, v, sub.Text(), s.Text(), assignTexts(as))
					}
					return true
				})
			}
		}
	})
}
