package feature

import (
	"slices"
	"strconv"
	"testing"

	"iflex/internal/markup"
	"iflex/internal/text"
)

// hereditaryPairs lists the (feature, value) pairs the registry declares
// hereditary among the boolean values and the bound n.
func hereditaryPairs(n int) []Constraint {
	var out []Constraint
	memo := NewMemo()
	for _, name := range reg.Names() {
		f, _ := reg.Lookup(name)
		for _, v := range []string{Yes, No, DistinctYes, DistinctNo, strconv.Itoa(n)} {
			if memo.Hereditary(f, memo.Intern(name, v), v) {
				out = append(out, Constraint{Feature: name, Value: v})
			}
		}
	}
	return out
}

// TestHereditaryDeclared pins what the built-ins' declarations derive as
// hereditary (contain, no residual): the mark features with yes and no,
// capitalized and in-first-half with yes and distinct-yes, max-length and
// max-tokens, and link-to-contains, prec-label-contains and
// prec-label-max-dist with any well-formed value. Deriving more is a claim
// FuzzHereditary must hold up.
func TestHereditaryDeclared(t *testing.T) {
	var got []string
	for _, c := range hereditaryPairs(5) {
		got = append(got, c.Feature+"="+c.Value)
	}
	want := []string{
		"bold-font=yes", "bold-font=no", "capitalized=yes", "capitalized=distinct-yes", "hyperlinked=yes", "hyperlinked=no",
		"in-first-half=yes", "in-first-half=distinct-yes", "in-list=yes", "in-list=no", "in-title=yes", "in-title=no",
		"italic-font=yes", "italic-font=no",
		"link-to-contains=yes", "link-to-contains=no", "link-to-contains=distinct-yes", "link-to-contains=distinct-no", "link-to-contains=5",
		"max-length=5", "max-tokens=5",
		"prec-label-contains=yes", "prec-label-contains=no", "prec-label-contains=distinct-yes", "prec-label-contains=distinct-no", "prec-label-contains=5",
		"prec-label-max-dist=5", "underlined=yes", "underlined=no",
	}
	if !slices.Equal(got, want) {
		t.Errorf("declared hereditary:\n got %v\nwant %v", got, want)
	}
	// A bound that does not parse is not declared (the call reports the
	// error); a feature of another type is when its method says so, and
	// never without one.
	memo := NewMemo()
	hereditary := func(f Feature, v string) bool { return memo.Hereditary(f, memo.Intern(f.Name(), v), v) }
	if hereditary(feat(t, "max-length"), "ten") || hereditary(feat(t, "max-tokens"), "-1") {
		t.Error("a malformed bound is declared hereditary")
	}
	if hereditary(struct{ Feature }{feat(t, "bold-font")}, Yes) {
		t.Error("a feature without Hereditary is declared hereditary")
	}
	if !hereditary(declaring{feat(t, "numeric")}, "5") || hereditary(declaring{feat(t, "bold-font")}, "4") {
		t.Error("a feature's own Hereditary is not what decides")
	}
}

// declaring is a feature that declares f = v hereditary for v = "5" only.
type declaring struct{ Feature }

func (declaring) Hereditary(v string) bool { return v == "5" }

// FuzzHereditary holds every declared hereditary constraint f = v to its
// contract on a page and a token-aligned span s: for each assignment
// Refine(s, v) returns, and for s itself when Verify(s, v) holds, every
// token-aligned sub-span t has Verify(t, v) true and Refine(t, v) exactly
// [contain(t)]. That is what lets the engine pass such a t through a
// re-check of f = v without calling either. Seeds are Books and DBLife
// record pages (testdata/fuzz).
func FuzzHereditary(f *testing.F) {
	f.Add(`<li><b>Query Processing</b> by <i>A. Smith</i></li><li>List: $45.00</li>`, uint8(12), uint16(0), uint16(8))
	f.Fuzz(func(t *testing.T, src string, bound uint8, start, width uint16) {
		d, err := markup.Parse("fuzz", src)
		if err != nil || len(d.Tokens()) == 0 {
			return
		}
		toks := d.Tokens()
		// s covers at most 12 tokens, so one input stays a few thousand
		// checks.
		lo := int(start) % len(toks)
		hi := lo + 1 + int(width)%min(12, len(toks)-lo)
		s := d.Span(toks[lo].Start, toks[hi-1].End)
		for _, c := range hereditaryPairs(int(bound) % 48) {
			ft := feat(t, c.Feature)
			var passed []text.Span
			if verify(t, c.Feature, s, c.Value) {
				passed = append(passed, s)
			}
			for _, a := range refine(t, c.Feature, s, c.Value) {
				passed = append(passed, a.Span)
			}
			for _, p := range passed {
				p.SubSpans(func(sub text.Span) bool {
					if ok, _ := ft.Verify(sub, c.Value); !ok {
						t.Fatalf("%s=%q: %v passed, its sub-span %v does not verify", c.Feature, c.Value, p, sub)
					}
					if as, _ := ft.Refine(sub, c.Value); len(as) != 1 || as[0] != text.ContainOf(sub) {
						t.Fatalf("%s=%q: %v passed, its sub-span %v refines to %v", c.Feature, c.Value, p, sub, as)
					}
					return true
				})
			}
		}
	})
}
