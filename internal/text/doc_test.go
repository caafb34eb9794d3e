package text

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mkDoc(t *testing.T, id, body string, marks ...Mark) *Document {
	t.Helper()
	return NewDocument(id, body, marks)
}

func TestTokenize(t *testing.T) {
	d := mkDoc(t, "d1", "Cozy house on quiet street")
	toks := d.Tokens()
	if len(toks) != 5 {
		t.Fatalf("got %d tokens, want 5", len(toks))
	}
	want := []string{"Cozy", "house", "on", "quiet", "street"}
	for i, tok := range toks {
		if got := d.Text()[tok.Start:tok.End]; got != want[i] {
			t.Errorf("token %d = %q, want %q", i, got, want[i])
		}
	}
}

func TestTokenizeWhitespaceVariants(t *testing.T) {
	cases := []struct {
		body string
		want int
	}{
		{"", 0},
		{"   ", 0},
		{"a", 1},
		{" a ", 1},
		{"a\tb\nc\r\nd", 4},
		{"  leading and   multiple  spaces ", 4},
	}
	for _, c := range cases {
		d := NewDocument("x", c.body, nil)
		if got := len(d.Tokens()); got != c.want {
			t.Errorf("tokenize(%q) = %d tokens, want %d", c.body, got, c.want)
		}
	}
}

func TestTokenIndexAt(t *testing.T) {
	d := mkDoc(t, "d", "ab cd")
	cases := map[int]int{0: 0, 1: 0, 2: -1, 3: 1, 4: 1}
	for off, want := range cases {
		if got := d.TokenIndexAt(off); got != want {
			t.Errorf("TokenIndexAt(%d) = %d, want %d", off, got, want)
		}
	}
	if d.TokenIndexAt(-1) != -1 || d.TokenIndexAt(100) != -1 {
		t.Error("out-of-range offsets should map to -1")
	}
}

func TestSpanBasics(t *testing.T) {
	d := mkDoc(t, "d", "Price: 351000 dollars")
	s := d.Span(7, 13)
	if s.Text() != "351000" {
		t.Fatalf("span text = %q", s.Text())
	}
	if n, ok := s.Numeric(); !ok || n != 351000 {
		t.Fatalf("Numeric() = %v, %v", n, ok)
	}
	whole := d.WholeSpan()
	if !whole.Contains(s) {
		t.Error("whole span should contain sub-span")
	}
	if !s.Overlaps(d.Span(10, 15)) {
		t.Error("overlapping spans not detected")
	}
	if s.Overlaps(d.Span(13, 15)) {
		t.Error("adjacent spans should not overlap")
	}
}

func TestSpanPanicsOutOfRange(t *testing.T) {
	d := mkDoc(t, "d", "abc")
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range span")
		}
	}()
	d.Span(1, 10)
}

func TestParseNumeric(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"92", 92, true},
		{"$1,234.50", 1234.5, true},
		{"  619000 ", 619000, true},
		{"-42", -42, true},
		{"", 0, false},
		{"$", 0, false},
		{"abc", 0, false},
		{"12a", 0, false},
		{"1.2.3", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseNumeric(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseNumeric(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestSubSpansEnumeration(t *testing.T) {
	d := mkDoc(t, "d", "Cozy house on")
	s := d.WholeSpan()
	var texts []string
	s.SubSpans(func(sub Span) bool {
		texts = append(texts, sub.Text())
		return true
	})
	want := []string{"Cozy", "Cozy house", "Cozy house on", "house", "house on", "on"}
	if len(texts) != len(want) {
		t.Fatalf("got %d sub-spans %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("sub-span %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if n := s.NumSubSpans(); n != 6 {
		t.Errorf("NumSubSpans = %d, want 6", n)
	}
}

func TestSubSpansEarlyStop(t *testing.T) {
	d := mkDoc(t, "d", "a b c d e")
	n := 0
	d.WholeSpan().SubSpans(func(Span) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop after %d spans, want 3", n)
	}
}

func TestShrinkToTokens(t *testing.T) {
	d := mkDoc(t, "d", "  hello world  ")
	s, ok := d.WholeSpan().Shrink()
	if !ok || s.Text() != "hello world" {
		t.Fatalf("Shrink = %q, %v", s.Text(), ok)
	}
	// A span covering only whitespace or a token fragment shrinks to nothing.
	if _, ok := d.Span(0, 2).Shrink(); ok {
		t.Error("whitespace-only span should not shrink to a token span")
	}
	if _, ok := d.Span(2, 5).Shrink(); ok {
		t.Error("partial-token span should not shrink to a token span")
	}
}

func TestMarksSortedAndFiltered(t *testing.T) {
	d := mkDoc(t, "d", "abc def ghi",
		Mark{Kind: MarkItalic, Start: 4, End: 7},
		Mark{Kind: MarkBold, Start: 0, End: 3},
		Mark{Kind: MarkBold, Start: 8, End: 11},
	)
	all := d.Marks()
	if len(all) != 3 || all[0].Start != 0 || all[1].Start != 4 {
		t.Fatalf("marks not sorted: %+v", all)
	}
	bold := d.MarksOf(MarkBold)
	if len(bold) != 2 || bold[0].Start != 0 || bold[1].Start != 8 {
		t.Fatalf("MarksOf(bold) = %+v", bold)
	}
	if got := d.MarksOf(MarkLink); len(got) != 0 {
		t.Errorf("MarksOf(link) = %+v, want empty", got)
	}
}

func TestHeaderBefore(t *testing.T) {
	d := mkDoc(t, "d", "Panel Session Alice Bob Other Stuff",
		Mark{Kind: MarkHeader, Start: 0, End: 13},
	)
	if h, ok := d.HeaderBefore(20); !ok || h.Start != 0 {
		t.Fatalf("HeaderBefore(20) = %+v, %v", h, ok)
	}
	if _, ok := d.HeaderBefore(5); ok {
		t.Error("no header should precede an offset inside the header")
	}
}

func TestAssignmentValues(t *testing.T) {
	d := mkDoc(t, "d", "Cozy house on")
	whole := d.WholeSpan()
	ex := ExactOf(d.Span(0, 4))
	if ex.NumValues() != 1 {
		t.Errorf("exact NumValues = %d", ex.NumValues())
	}
	co := ContainOf(whole)
	if co.NumValues() != 6 {
		t.Errorf("contain NumValues = %d, want 6", co.NumValues())
	}
	if !co.Covers(d.Span(5, 13)) { // "house on"
		t.Error("contain should cover token-aligned sub-span")
	}
	if co.Covers(d.Span(1, 4)) { // "ozy": not token aligned
		t.Error("contain must not cover non-token-aligned span")
	}
	if !co.CoversText("house") || co.CoversText("ouse") {
		t.Error("CoversText mismatch")
	}
}

func TestAssignmentString(t *testing.T) {
	d := mkDoc(t, "d", "92 bottles")
	if got := ExactOf(d.Span(0, 2)).String(); got != `exact("92")` {
		t.Errorf("String = %s", got)
	}
	if got := ContainOf(d.Span(0, 10)).String(); got != `contain("92 bottles")` {
		t.Errorf("String = %s", got)
	}
}

func TestDedupAssignments(t *testing.T) {
	d := mkDoc(t, "d", "alpha beta gamma")
	whole := d.WholeSpan()
	alpha := d.Span(0, 5)
	beta := d.Span(6, 10)
	in := []Assignment{
		ExactOf(alpha), // subsumed by contain(whole)
		ContainOf(whole),
		ContainOf(beta),  // subsumed by contain(whole)
		ExactOf(alpha),   // duplicate
		ContainOf(whole), // duplicate
	}
	out := DedupAssignments(in)
	if len(out) != 1 || out[0].Mode != Contain || !out[0].Span.Equal(whole) {
		t.Fatalf("DedupAssignments = %v", out)
	}
}

// refDedupAssignments is DedupAssignments as it was before it returned the
// copy it sorts: the survivors are collected into a second slice.
func refDedupAssignments(as []Assignment) []Assignment {
	cp := make([]Assignment, len(as))
	copy(cp, as)
	if len(as) <= 1 {
		return cp
	}
	sort.Slice(cp, func(i, j int) bool { return CompareAssignments(cp[i], cp[j]) < 0 })
	uniq := cp[:0]
	for i, a := range cp {
		if i > 0 && CompareAssignments(cp[i-1], a) == 0 {
			continue
		}
		uniq = append(uniq, a)
	}
	var out []Assignment
	for i, a := range uniq {
		subsumed := false
		for j, b := range uniq {
			if i == j || b.Mode != Contain {
				continue
			}
			if a.Mode == Contain && b.Span.Contains(a.Span) && (!a.Span.Equal(b.Span) || j < i) {
				subsumed = true
			}
			if a.Mode == Exact && b.Covers(a.Span) {
				subsumed = true
			}
		}
		if !subsumed {
			out = append(out, a)
		}
	}
	return out
}

// TestDedupMatchesReference: random lists of nested, overlapping and
// repeated assignments over two pages — a few and more than the 64 the
// marks fit on the stack for — dedup to what the two-slice version
// returned, from an input left untouched, with no room to append into.
func TestDedupMatchesReference(t *testing.T) {
	docs := []*Document{mkDoc(t, "a", "one two three four five six seven"), mkDoc(t, "b", "uno dos tres cuatro")}
	r := rand.New(rand.NewSource(3))
	shrunk := 0
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(6)
		if trial%100 == 0 {
			n = 80
		}
		in := make([]Assignment, n)
		for i := range in {
			var subs []Span
			ContainOf(docs[r.Intn(2)].WholeSpan()).Values(func(s Span) bool { subs = append(subs, s); return true })
			in[i] = Assignment{Mode: Mode(r.Intn(2)), Span: subs[r.Intn(len(subs))]}
		}
		before := slices.Clone(in)
		got, want := DedupAssignments(in), refDedupAssignments(in)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %v\n got %v\nwant %v", trial, in, got, want)
		}
		if !slices.Equal(in, before) || cap(got) != len(got) {
			t.Fatalf("trial %d: input changed, or %d spare slots behind the result", trial, cap(got)-len(got))
		}
		if len(got) < len(in) {
			shrunk++
		}
	}
	if shrunk < 1000 {
		t.Fatalf("only %d of 2000 lists had anything to drop", shrunk)
	}
}

// canonicalDoc is the page FuzzCanonicalAssignments draws its spans from.
var canonicalDoc = NewDocument("c", "one two  three four five six seven", nil)

// assignmentsOf decodes fuzz input into assignments over canonicalDoc: three
// bytes each, the mode and the two ends of a byte range (so spans nest,
// overlap, repeat, and need not sit on token boundaries). The first byte
// shapes the list: bit 0 makes it DedupAssignments of itself, bit 1 sorts
// it, so canonical lists and sorted lists that are not both occur.
func assignmentsOf(data []byte) []Assignment {
	if len(data) == 0 {
		return nil
	}
	shape, data := data[0], data[1:]
	n := canonicalDoc.Len() + 1
	var as []Assignment
	for ; len(data) >= 3; data = data[3:] {
		lo, hi := int(data[1])%n, int(data[2])%n
		if lo > hi {
			lo, hi = hi, lo
		}
		as = append(as, Assignment{Mode: Mode(data[0] & 1), Span: canonicalDoc.Span(lo, hi)})
	}
	if shape&1 != 0 {
		as = DedupAssignments(as)
	}
	if shape&2 != 0 {
		SortAssignments(as)
	}
	return as
}

// FuzzCanonicalAssignments holds the allocation-free check to its
// definition: a list is canonical exactly when DedupAssignments returns it
// unchanged.
func FuzzCanonicalAssignments(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 34, 0, 0, 3})                                // deduplicated: contain(whole) swallows exact("one")
	f.Add([]byte{2, 0, 0, 3, 0, 4, 7, 1, 8, 15, 1, 0, 7})              // sorted, but contain("one two") covers both exacts
	f.Add([]byte{2, 0, 4, 7, 0, 0, 3, 1, 17, 21, 9})                   // sorted exacts beside a contain of partial tokens
	f.Add([]byte{0, 1, 4, 13, 1, 0, 34, 0, 4, 7, 0, 4, 7})             // unsorted, a duplicate
	f.Add([]byte{3, 1, 0, 7, 1, 4, 15, 0, 16, 21, 0, 1, 2, 1, 22, 22}) // deduplicated: overlap, a partial token, an empty span
	f.Fuzz(func(t *testing.T, data []byte) {
		as := assignmentsOf(data)
		if got, want := CanonicalAssignments(as), slices.Equal(DedupAssignments(as), as); got != want {
			t.Fatalf("CanonicalAssignments(%v) = %v, DedupAssignments gives %v", as, got, DedupAssignments(as))
		}
	})
}

func TestDedupKeepsIndependent(t *testing.T) {
	d := mkDoc(t, "d", "alpha beta gamma delta")
	a := ContainOf(d.Span(0, 10))  // "alpha beta"
	b := ContainOf(d.Span(11, 22)) // "gamma delta"
	e := ExactOf(d.Span(0, 22))    // whole text: not covered by either contain
	out := DedupAssignments([]Assignment{a, b, e})
	if len(out) != 3 {
		t.Fatalf("DedupAssignments dropped independent assignments: %v", out)
	}
}

func TestCompareSpansOrdering(t *testing.T) {
	d1 := mkDoc(t, "a", "one two three")
	d2 := mkDoc(t, "b", "one two three")
	if CompareSpans(d1.Span(0, 3), d2.Span(0, 3)) >= 0 {
		t.Error("doc id ordering broken")
	}
	if CompareSpans(d1.Span(0, 3), d1.Span(0, 3)) != 0 {
		t.Error("equal spans should compare 0")
	}
	if CompareSpans(d1.Span(0, 3), d1.Span(0, 7)) >= 0 {
		t.Error("end ordering broken")
	}
	if CompareSpans(d1.Span(4, 7), d1.Span(0, 3)) <= 0 {
		t.Error("start ordering broken")
	}
}

// Property: for any generated text, every token-aligned sub-span reported by
// SubSpans is covered by contain(whole), and counts agree with NumSubSpans.
func TestQuickSubSpanInvariants(t *testing.T) {
	f := func(words []uint8) bool {
		if len(words) > 12 {
			words = words[:12]
		}
		body := ""
		for i, w := range words {
			if i > 0 {
				body += " "
			}
			// Build small deterministic words: "wN".
			body += "w" + string(rune('a'+int(w%26)))
		}
		d := NewDocument("q", body, nil)
		whole := d.WholeSpan()
		co := ContainOf(whole)
		n := 0
		ok := true
		whole.SubSpans(func(s Span) bool {
			n++
			if !co.Covers(s) {
				ok = false
				return false
			}
			return true
		})
		return ok && n == whole.NumSubSpans()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLineIndex(t *testing.T) {
	// Reference implementations: the linear scans the index replaced.
	refStart := func(body string, off int) int {
		for i := off - 1; i >= 0; i-- {
			if body[i] == '\n' {
				return i + 1
			}
		}
		return 0
	}
	refEnd := func(body string, off int) int {
		for i := off; i < len(body); i++ {
			if body[i] == '\n' {
				return i
			}
		}
		return len(body)
	}
	bodies := []string{
		"",
		"one line",
		"a\nb\nc",
		"trailing newline\n",
		"\nleading",
		"\n\n\n",
		"beds: 3\nbaths: 2\nprice: 150000",
	}
	for _, body := range bodies {
		d := NewDocument("x", body, nil)
		for off := 0; off <= len(body); off++ {
			if got, want := d.LineStart(off), refStart(body, off); got != want {
				t.Errorf("LineStart(%q, %d) = %d, want %d", body, off, got, want)
			}
			if got, want := d.LineEnd(off), refEnd(body, off); got != want {
				t.Errorf("LineEnd(%q, %d) = %d, want %d", body, off, got, want)
			}
		}
	}
}

func TestLowerText(t *testing.T) {
	d := NewDocument("x", "Cozy HOUSE", nil)
	if got := d.LowerText(); got != "cozy house" {
		t.Errorf("LowerText() = %q, want %q", got, "cozy house")
	}
	if d.LowerText() != d.LowerText() {
		t.Error("LowerText() not stable across calls")
	}
	// Kelvin sign (U+212A, 3 bytes) lowers to 'k' (1 byte): callers doing
	// offset arithmetic must detect the length change and fall back.
	k := NewDocument("k", "aKb", nil)
	if len(k.LowerText()) == k.Len() {
		t.Error("Kelvin sign should change byte length under ToLower")
	}
}

// BenchmarkSubSpanEnumeration enumerates the values of one contain
// assignment over a ten-token span: the n(n+1)/2 token-aligned sub-spans
// every from() cell expands to.
func BenchmarkSubSpanEnumeration(b *testing.B) {
	a := ContainOf(NewDocument("bench", "one two three four five six seven eight nine ten", nil).WholeSpan())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		a.Values(func(Span) bool { n++; return true })
		if n != 55 {
			b.Fatalf("%d sub-spans, want 55", n)
		}
	}
}
