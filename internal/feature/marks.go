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

// markRegions lists the regions of the mark kind, overlapping or adjacent
// marks merged.
func markRegions(dst []byteRange, d *text.Document, p *param) []byteRange {
	first := len(dst)
	for _, m := range d.MarksOf(p.mark) {
		if n := len(dst); n > first && m.Start <= dst[n-1].end {
			dst[n-1].end = max(dst[n-1].end, m.End)
		} else {
			dst = append(dst, byteRange{m.Start, m.End})
		}
	}
	return dst
}

// markGaps lists the gaps between the merged regions. The i-th gap is
// written over the i-th region only after that is read.
func markGaps(dst []byteRange, d *text.Document, p *param) []byteRange {
	n := len(dst)
	rs := markRegions(dst, d, p)
	out, cur := rs[:n], 0
	for _, r := range rs[n:] {
		if r.start > cur {
			out = append(out, byteRange{cur, r.start})
		}
		cur = r.end
	}
	if cur < d.Len() {
		out = append(out, byteRange{cur, d.Len()})
	}
	return out
}
