package markup

import (
	"strings"
	"testing"
	"testing/quick"
)

// FuzzParse: Parse never panics, and every mark of a page it accepts
// satisfies TestMarkInvariants' range rule. Seeds are one generated page
// per task (testdata/fuzz) and the malformed pages the chaos suite drives
// through a session: an embedded NUL, a 1 MB attribute, a truncated tag.
func FuzzParse(f *testing.F) {
	f.Add("Item\x00three<br>Price: 350<br>")
	f.Add(`<b junk="` + strings.Repeat("A", 1<<20) + `">Item four</b><br>Price: 400<br>`)
	f.Add(`Price: 12<b class="x`)
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse("fuzz", src)
		if err != nil {
			return // errors are fine; panics are not
		}
		for _, m := range d.Marks() {
			if m.Start < 0 || m.End > len(d.Text()) || m.Start >= m.End {
				t.Fatalf("%q: bad mark %+v", src, m)
			}
		}
	})
}

// Property: for tag-free input without special characters, Parse is the
// identity on text.
func TestQuickPlainTextIdentity(t *testing.T) {
	f := func(words []uint8) bool {
		var parts []string
		for _, w := range words {
			parts = append(parts, string(rune('a'+w%26)))
		}
		src := strings.Join(parts, " ")
		d, err := Parse("p", src)
		if err != nil {
			return false
		}
		return d.Text() == src && len(d.Marks()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Mark invariants: every mark is in range and non-empty; marks of the same
// kind produced by the parser never overlap improperly after merge.
func TestMarkInvariants(t *testing.T) {
	srcs := []string{
		"<b>a</b><i>b</i><u>c</u>",
		"<ul><li><b>x</b> and <i>y</i></li><li>z</li></ul>",
		"<h1>Head</h1><p>body <a href='u'>link</a></p><h2>Next</h2>",
		"<b><b>nested same</b></b>",
		"text <b>open <i>both</b> closed</i> after",
	}
	for _, src := range srcs {
		d := MustParse("inv", src)
		for _, m := range d.Marks() {
			if m.Start < 0 || m.End > len(d.Text()) || m.Start >= m.End {
				t.Errorf("%q: bad mark %+v", src, m)
			}
		}
	}
}
