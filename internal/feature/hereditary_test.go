package feature

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"iflex/internal/markup"
	"iflex/internal/text"
)

// hereditaryPairs lists the handles of the (feature, value) pairs the
// registry declares hereditary among the boolean values and the bound n.
func hereditaryPairs(n int) []*Cons {
	var out []*Cons
	memo := NewMemo()
	for _, name := range reg.Names() {
		f, _ := reg.Lookup(name)
		for _, v := range []string{Yes, No, DistinctYes, DistinctNo, strconv.Itoa(n)} {
			if c := memo.Intern(f, v); c.Hereditary {
				out = append(out, c)
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
		got = append(got, c.Feature.Name()+"="+c.Value)
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
	// never without one. A memo tells features apart by name, so each
	// wrapper gets a memo of its own.
	hereditary := func(f Feature, v string) bool { return NewMemo().Intern(f, v).Hereditary }
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

// counting is declaring that counts how often it is asked.
type counting struct {
	declaring
	asked *atomic.Int32
}

func (c counting) Hereditary(v string) bool {
	c.asked.Add(1)
	return c.declaring.Hereditary(v)
}

// TestInternOneHandle: interning one (feature, value) pair from 16
// goroutines at once (run under -race) returns one handle, a second memo
// returns another, and a user feature's Hereditary is asked when a handle
// is made, not once per Intern.
func TestInternOneHandle(t *testing.T) {
	var asked atomic.Int32
	f := counting{declaring{feat(t, "numeric")}, &asked}
	memo := NewMemo()
	got := make([]*Cons, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = memo.Intern(f, "5")
		}()
	}
	wg.Wait()
	for g, c := range got {
		if c != got[0] {
			t.Fatalf("goroutine %d got handle %p, goroutine 0 %p", g, c, got[0])
		}
	}
	if c := got[0]; c.Feature.Name() != "numeric" || c.Value != "5" || !c.Hereditary {
		t.Fatalf("handle %s=%q hereditary=%v", c.Feature.Name(), c.Value, c.Hereditary)
	}
	// Goroutines that raced on the new pair may each have asked; no later
	// Intern asks again.
	raced := asked.Load()
	for range 3 {
		memo.Intern(f, "5")
	}
	other := NewMemo().Intern(f, "5")
	if other == got[0] || raced < 1 || asked.Load() != raced+1 {
		t.Fatalf("a second memo shares the handle (%v), or Hereditary was asked %d times after the race's %d, want once (the second memo)",
			other == got[0], asked.Load()-raced, raced)
	}
	if memo.Intern(f, "4") == got[0] || memo.Intern(feat(t, "numeric"), "5") != got[0] {
		t.Fatal("handles are not one per (feature name, value)")
	}
}

// TestForeignHandleRejected: a record table refuses a handle another memo
// made, whose id would name a different constraint in its own lists.
func TestForeignHandleRejected(t *testing.T) {
	d := markup.MustParse("d", "<b>10</b> apples")
	c := NewMemo().Intern(feat(t, "bold-font"), Yes)
	defer func() {
		if recover() == nil {
			t.Fatal("a handle from another memo was accepted")
		}
	}()
	NewMemo().Doc(d).Verify(c, d.Span(0, 2))
}

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
			ft, name := c.Feature, c.Feature.Name()
			var passed []text.Span
			if verify(t, name, s, c.Value) {
				passed = append(passed, s)
			}
			for _, a := range refine(t, name, s, c.Value) {
				passed = append(passed, a.Span)
			}
			for _, p := range passed {
				p.SubSpans(func(sub text.Span) bool {
					if ok, _ := ft.Verify(sub, c.Value); !ok {
						t.Fatalf("%s=%q: %v passed, its sub-span %v does not verify", name, c.Value, p, sub)
					}
					if as, _ := ft.Refine(sub, c.Value); len(as) != 1 || as[0] != text.ContainOf(sub) {
						t.Fatalf("%s=%q: %v passed, its sub-span %v refines to %v", name, c.Value, p, sub, as)
					}
					return true
				})
			}
		}
	})
}
