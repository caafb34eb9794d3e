package feature

import (
	"iflex/internal/text"
)

// markFeature implements the appearance features backed by document marks:
// bold-font, italic-font, underlined, hyperlinked, in-list, in-title.
//
// Semantics for a span s and mark kind k:
//
//	f(s) = yes           s lies entirely inside a (merged) k-region
//	f(s) = distinct-yes  s is exactly a maximal k-region (token-trimmed):
//	                     it is k, and its surrounding text is not
//	f(s) = no            s does not intersect any k-region
type markFeature struct {
	name string
	kind text.MarkKind
}

func (f markFeature) Name() string           { return f.name }
func (f markFeature) Kind() Kind             { return KindBoolean }
func (markFeature) Hereditary(v string) bool { return v == Yes || v == No }

// regions returns the merged k-regions of s's document clipped to s,
// sorted by start.
func (f markFeature) regions(s text.Span) []byteRange {
	marks := s.Doc().MarksOf(f.kind)
	rs := make([]byteRange, 0, len(marks))
	for _, m := range marks {
		rs = append(rs, byteRange{m.Start, m.End})
	}
	rs = mergeRanges(rs)
	return clipRanges(rs, s.Start(), s.End())
}

// maximalRegions returns the merged k-regions of the whole document
// (token-trimmed spans), used for distinct-yes.
func (f markFeature) maximalRegions(d *text.Document) []text.Span {
	marks := d.MarksOf(f.kind)
	rs := make([]byteRange, 0, len(marks))
	for _, m := range marks {
		rs = append(rs, byteRange{m.Start, m.End})
	}
	rs = mergeRanges(rs)
	var out []text.Span
	for _, r := range rs {
		if sp, ok := d.Span(r.start, r.end).Shrink(); ok {
			out = append(out, sp)
		}
	}
	return out
}

func (f markFeature) Verify(s text.Span, v string) (bool, error) {
	switch v {
	case Yes:
		for _, r := range f.regions(s) {
			if r.start <= s.Start() && s.End() <= r.end {
				return true, nil
			}
		}
		return false, nil
	case DistinctYes:
		for _, max := range f.maximalRegions(s.Doc()) {
			if max.Equal(s) {
				return true, nil
			}
		}
		return false, nil
	case No:
		return len(f.regions(s)) == 0, nil
	default:
		return false, errBadValue(f.name, v)
	}
}

func (f markFeature) Refine(s text.Span, v string) ([]text.Assignment, error) {
	d := s.Doc()
	switch v {
	case Yes:
		// Every sub-span of a maximal k-region is still k: contain.
		return rangesToAssignments(d, f.regions(s), text.Contain), nil
	case DistinctYes:
		// Only the maximal region itself qualifies: exact.
		var out []text.Assignment
		for _, max := range f.maximalRegions(d) {
			if s.Contains(max) {
				out = append(out, text.ExactOf(max))
			}
		}
		return out, nil
	case No:
		// The gaps between k-regions; every sub-span of a gap avoids k.
		gaps := complementRanges(f.regions(s), s.Start(), s.End())
		return rangesToAssignments(d, gaps, text.Contain), nil
	default:
		return nil, errBadValue(f.name, v)
	}
}
