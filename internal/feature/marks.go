package feature

import (
	"iflex/internal/text"
)

// markFeature declares an appearance feature backed by document marks:
// bold-font, italic-font, underlined, hyperlinked, in-list, in-title.
//
// Semantics for a span s and mark kind k, over the merged k-regions:
//
//	f(s) = yes           s lies entirely inside a k-region
//	f(s) = distinct-yes  s is exactly a k-region (token-trimmed): it is
//	                     k, and its surrounding text is not
//	f(s) = no            s lies inside a gap between k-regions
func markFeature(name string, kind text.MarkKind) *builtin {
	return &builtin{name: name, kind: KindBoolean, lang: func(v string) (lang, error) {
		p := param{mark: kind}
		switch v {
		case Yes:
			return lang{regions: markRegions, p: p}, nil
		case DistinctYes:
			return lang{regions: markRegions, exact: true, p: p}, nil
		case No:
			return lang{regions: markGaps, p: p}, nil
		}
		return lang{}, errBadValue(name, v)
	}}
}

// markRegions lists the merged regions of the mark kind, document-wide.
func markRegions(dst []byteRange, s text.Span, p param) []byteRange {
	for _, m := range s.Doc().MarksOf(p.mark) {
		dst = append(dst, byteRange{m.Start, m.End})
	}
	return mergeRanges(dst)
}

// markGaps lists the gaps between the merged regions, document-wide. The
// i-th gap is written over the i-th region only after that is read.
func markGaps(dst []byteRange, s text.Span, p param) []byteRange {
	rs := markRegions(dst, s, p)
	out, cur := rs[:0], 0
	for _, r := range rs {
		if r.start > cur {
			out = append(out, byteRange{cur, r.start})
		}
		cur = r.end
	}
	if cur < s.Doc().Len() {
		out = append(out, byteRange{cur, s.Doc().Len()})
	}
	return out
}
