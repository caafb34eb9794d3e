package alog

import (
	"testing"
	"testing/quick"
)

// Property: Parse never panics on arbitrary input.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

// Property: successfully parsed programs round-trip through String.
func TestQuickRoundTripTaskPrograms(t *testing.T) {
	srcs := []string{
		figure2Src,
		`T5(title) :- VLDB(x), extractVLDB(x, title, fp, lp), lp < fp + 5.
extractVLDB(x, title, fp, lp) :- from(x, title), from(x, fp), from(x, lp).`,
		`Q(t) :- A(x), e(x, t), t != NULL, similar(t, t).
e(x, t) :- from(x, t), preceded_by(t, "Label:").`,
	}
	for _, src := range srcs {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", p.String(), err)
		}
		if p.String() != q.String() {
			t.Errorf("round trip changed:\n%s\nvs\n%s", p, q)
		}
	}
}

// FuzzParse: Parse never panics, and a program it accepts renders to
// source that parses back to the same rendering — Parse → String → Parse
// is a fixpoint after one round. The seed corpus (testdata/fuzz/FuzzParse)
// holds every task program.
func FuzzParse(f *testing.F) {
	f.Add(figure2Src)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		s := p.String()
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("rendering of %q does not parse: %v\n%s", src, err, s)
		}
		if q.String() != s {
			t.Fatalf("rendering of %q is not a fixpoint:\n%s\nvs\n%s", src, s, q)
		}
	})
}
