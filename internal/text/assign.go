package text

import (
	"fmt"
	"slices"
	"strings"
)

// Mode distinguishes the two assignment types of Section 3.
type Mode int

const (
	// Exact encodes a single value: exactly the assignment's span.
	Exact Mode = iota
	// Contain encodes all values that are token-aligned sub-spans of the
	// assignment's span (including the span itself, trimmed to tokens).
	Contain
)

// String returns "exact" or "contain".
func (m Mode) String() string {
	if m == Exact {
		return "exact"
	}
	return "contain"
}

// Assignment encodes a set of possible values for one cell of a compact
// table: exact(s) is the single value s; contain(s) is every token-aligned
// sub-span of s (Section 3).
type Assignment struct {
	Mode Mode
	Span Span
}

// ExactOf returns the assignment exact(s).
func ExactOf(s Span) Assignment { return Assignment{Mode: Exact, Span: s} }

// ContainOf returns the assignment contain(s).
func ContainOf(s Span) Assignment { return Assignment{Mode: Contain, Span: s} }

// String renders the assignment like the paper: exact("92"),
// contain("Cherry Hills"). Long spans are elided but keep their document
// id and byte range, so distinct spans never render identically.
func (a Assignment) String() string { return a.format(a.Span.Text()) }

// format is String given t, the text of a's span.
func (a Assignment) format(t string) string {
	const cut = 48
	if len(t) <= cut {
		return fmt.Sprintf("%s(%q)", a.Mode, t)
	}
	return fmt.Sprintf("%s(%s[%d:%d] %q...%q)", a.Mode,
		a.Span.Doc().ID(), a.Span.Start(), a.Span.End(), t[:20], t[len(t)-12:])
}

// FormatDistinct renders every assignment of as like String, reading each
// document's text once for all of its assignments, documents in the order
// they first appear. A lazy page under a resident budget is then loaded
// once for the batch rather than once per assignment that mentions it.
func FormatDistinct(as []Assignment) []string {
	rank := make([]int, len(as))
	first := map[*Document]int{}
	order := make([]int, len(as))
	for i, a := range as {
		r, ok := first[a.Span.doc]
		if !ok {
			r = len(first)
			first[a.Span.doc] = r
		}
		rank[i], order[i] = r, i
	}
	slices.SortStableFunc(order, func(i, j int) int { return rank[i] - rank[j] })
	out := make([]string, len(as))
	var page string
	for k, i := range order {
		if k == 0 || rank[i] != rank[order[k-1]] {
			page = as[i].Span.doc.Text()
		}
		out[i] = as[i].format(page[as[i].Span.start:as[i].Span.end])
	}
	return out
}

// NumValues returns |V(a)|, the number of values the assignment encodes.
func (a Assignment) NumValues() int {
	if a.Mode == Exact {
		return 1
	}
	sh, ok := a.Span.Shrink()
	if !ok {
		return 0
	}
	return sh.NumSubSpans()
}

// Values enumerates V(a), calling fn for each encoded value span.
// Enumeration stops early when fn returns false.
func (a Assignment) Values(fn func(Span) bool) {
	if a.Mode == Exact {
		fn(a.Span)
		return
	}
	sh, ok := a.Span.Shrink()
	if !ok {
		return
	}
	sh.SubSpans(fn)
}

// Covers reports whether value v is in V(a).
func (a Assignment) Covers(v Span) bool {
	if a.Mode == Exact {
		return a.Span.Equal(v)
	}
	if !a.Span.Contains(v) {
		return false
	}
	// v must be token-aligned within the document.
	d := v.Doc()
	lo, hi := v.TokenBounds()
	if lo >= hi {
		return false
	}
	toks := d.content().tokens
	return toks[lo].Start == v.Start() && toks[hi-1].End == v.End()
}

// CoversText reports whether any value in V(a) has the given normalised text.
func (a Assignment) CoversText(txt string) bool {
	found := false
	a.Values(func(s Span) bool {
		if s.NormText() == txt {
			found = true
			return false
		}
		return true
	})
	return found
}

// CompareAssignments orders assignments by mode, then span. Used to produce
// canonical cell renderings for signatures and tests.
func CompareAssignments(a, b Assignment) int {
	if a.Mode != b.Mode {
		if a.Mode < b.Mode {
			return -1
		}
		return 1
	}
	return CompareSpans(a.Span, b.Span)
}

// SortAssignments sorts a slice of assignments into canonical order.
// Assignments that compare equal are identical, so the order is unique.
func SortAssignments(as []Assignment) {
	slices.SortFunc(as, CompareAssignments)
}

// FormatAssignments renders a multiset of assignments canonically, e.g.
// {exact("351000"), contain("Cozy ... High")}, as a compact cell renders
// them. It is for rendering only: it copies, sorts and formats every
// element, and it drops the offsets of short spans, so two lists it
// renders alike may differ. Nothing on the evaluation path calls it.
func FormatAssignments(as []Assignment) string {
	cp := make([]Assignment, len(as))
	copy(cp, as)
	SortAssignments(cp)
	parts := make([]string, len(cp))
	for i, a := range cp {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// DedupAssignments removes duplicate assignments (same mode, same span) and
// assignments subsumed by a contain assignment in the same set:
// contain(s) subsumes contain(t) when t ⊆ s, and subsumes exact(v) when
// v ∈ V(contain(s)). The result is sorted canonically. It is the one
// allocation of a constraint refinement, so the copy it sorts is also what
// it returns.
func DedupAssignments(as []Assignment) []Assignment {
	cp := make([]Assignment, len(as))
	copy(cp, as)
	if len(cp) <= 1 {
		return cp
	}
	SortAssignments(cp)
	// Drop exact duplicates first.
	uniq := cp[:0]
	for i, a := range cp {
		if i > 0 && CompareAssignments(cp[i-1], a) == 0 {
			continue
		}
		uniq = append(uniq, a)
	}
	// Mark the assignments subsumed by a contain assignment — every
	// decision reads the whole deduplicated list — then close the gaps.
	var few [64]bool
	subsumed := few[:min(len(uniq), len(few))]
	if len(uniq) > len(few) {
		subsumed = make([]bool, len(uniq))
	}
	for i, a := range uniq {
		for j, b := range uniq {
			if i == j || b.Mode != Contain {
				continue
			}
			switch a.Mode {
			case Contain:
				if b.Span.Contains(a.Span) && !a.Span.Equal(b.Span) {
					subsumed[i] = true
				} else if a.Span.Equal(b.Span) && j < i {
					subsumed[i] = true
				}
			case Exact:
				if b.Covers(a.Span) {
					subsumed[i] = true
				}
			}
			if subsumed[i] {
				break
			}
		}
	}
	out := uniq[:0]
	for i, a := range uniq {
		if !subsumed[i] {
			out = append(out, a)
		}
	}
	return out[:len(out):len(out)]
}

// CanonicalAssignments reports whether as is already what DedupAssignments
// returns for it: strictly ascending in canonical order, so free of
// duplicates, with no assignment subsumed by a contain assignment of the
// list. It allocates nothing, which is what lets a caller share a canonical
// list instead of deduplicating a copy of it.
func CanonicalAssignments(as []Assignment) bool {
	if len(as) <= 1 {
		return true
	}
	contains := len(as) // the contain assignments sort behind every exact one
	for i := range as {
		if i > 0 && CompareAssignments(as[i-1], as[i]) >= 0 {
			return false
		}
		if as[i].Mode == Contain && contains == len(as) {
			contains = i
		}
	}
	// Ascending, two contain assignments never have equal spans: only strict
	// containment and coverage subsume.
	for i, a := range as {
		for j := contains; j < len(as); j++ {
			if b := as[j]; i != j && (a.Mode == Contain && b.Span.Contains(a.Span) || a.Mode == Exact && b.Covers(a.Span)) {
				return false
			}
		}
	}
	return true
}
