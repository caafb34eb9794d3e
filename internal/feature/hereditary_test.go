package feature

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
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

// selfStablePairs lists, in one memo, the handles of every built-in under
// the boolean values, the bound n and the values TestRefineCoversVerify
// tries, each pair once, that claim to be self-stable.
func selfStablePairs(t *testing.T, n int) []*Cons {
	var out []*Cons
	memo := NewMemo()
	for _, name := range reg.Names() {
		f := feat(t, name)
		for _, v := range append([]string{Yes, No, DistinctYes, DistinctNo, strconv.Itoa(n)}, coverageValues(t, name)...) {
			if c := memo.Intern(f, v); c.SelfStable && !slices.Contains(out, c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// unstable reports what breaks f = v's self-stability on s, or "": an
// assignment Refine(s) returns that is not token-aligned, an exact one
// that does not verify, or a contain one that does not refine to exactly
// itself.
func unstable(c *Cons, s text.Span) string {
	as, _ := c.Feature.Refine(s, c.Value)
	for _, a := range as {
		if !a.Span.TokenAligned() {
			return fmt.Sprintf("Refine(%q) returns %v, which is not token-aligned", s.Text(), a)
		}
		if a.Mode == text.Exact {
			if ok, _ := c.Feature.Verify(a.Span, c.Value); !ok {
				return fmt.Sprintf("Refine(%q) returns %v, which does not verify", s.Text(), a)
			}
		} else if again, _ := c.Feature.Refine(a.Span, c.Value); !slices.Equal(again, []text.Assignment{a}) {
			return fmt.Sprintf("Refine(%q) returns %v, which refines to %v", s.Text(), a, again)
		}
	}
	return ""
}

// rightAfter is a pinned language no built-in declares: a span starting
// right where a label ends. A label is followed by a space, so Refine trims
// its spans off the region start they are pinned to, and refining one
// again finds no region starting there.
var rightAfter = &builtin{name: "right-after", kind: KindParametric, lang: func(v string) (lang, error) {
	return lang{regions: afterLabel, pinStart: true, p: param{label: strings.ToLower(v)}}, nil
}}

// TestSelfStableDeclared pins which built-ins are self-stable — every one
// but the pinned patterns (starts-with, ends-with, matches) — and holds
// each claim to its contract on every span of the memo pages: every
// assignment Refine returns is token-aligned, verifies when exact and
// refines to exactly itself when contain. A feature a deployment registers
// is never self-stable, whatever it declares, and rightAfter, a pinned
// language where the contract fails, is not either.
func TestSelfStableDeclared(t *testing.T) {
	claims, after := selfStablePairs(t, 5), NewMemo().Intern(rightAfter, "List:")
	if after.SelfStable {
		claims = append(claims, after)
	}
	memo := NewMemo()
	for _, name := range reg.Names() {
		for _, v := range coverageValues(t, name) {
			c := memo.Intern(feat(t, name), v)
			pattern := name == "starts-with" || name == "ends-with" || name == "matches"
			if !c.Declared || c.SelfStable == pattern {
				t.Errorf("%s=%q: declared %v, self-stable %v", name, v, c.Declared, c.SelfStable)
			}
		}
	}
	var spans []text.Span
	for _, d := range memoPages() {
		spans = append(spans, memoSpans(d)...)
	}
	for _, c := range claims {
		for _, s := range spans {
			if why := unstable(c, s); why != "" {
				t.Fatalf("%s=%q claims self-stability: %s", c.Feature.Name(), c.Value, why)
			}
		}
	}
	if NewMemo().Intern(struct{ Feature }{feat(t, "bold-font")}, Yes).SelfStable ||
		NewMemo().Intern(declaring{feat(t, "numeric")}, "5").SelfStable {
		t.Error("a feature a deployment registers is self-stable")
	}
	if !slices.ContainsFunc(spans, func(s text.Span) bool { return unstable(after, s) != "" }) {
		t.Error("right-after keeps the contract on every span: it shows nothing")
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
// re-check of f = v without calling either. Every self-stable one is held
// to its own contract on s (unstable), which lets the engine skip
// re-checking what f = v itself returned. Seeds are Books and DBLife record
// pages (testdata/fuzz).
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
		for _, c := range selfStablePairs(t, int(bound)%48) {
			if why := unstable(c, s); why != "" {
				t.Fatalf("%s=%q claims self-stability: %s", c.Feature.Name(), c.Value, why)
			}
		}
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
