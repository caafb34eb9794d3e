package feature

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"iflex/internal/text"
)

// normFold normalises whitespace and case for context comparisons.
func normFold(s string) string {
	return strings.ToLower(strings.Join(strings.Fields(s), " "))
}

// labelFeature declares a feature whose value is a non-empty string, which
// mk turns into the language; what names the value in the error.
func labelFeature(name, what string, mk func(v string) lang) *builtin {
	return &builtin{name: name, kind: KindParametric, lang: func(v string) (lang, error) {
		if v == "" {
			return lang{}, fmt.Errorf("feature: %s needs a non-empty %s", name, what)
		}
		return mk(v), nil
	}}
}

// precededBy declares preceded-by(s)="label": s lies on one line, after an
// occurrence of the label (case-insensitive) with only whitespace between.
// Its regions run from each occurrence to the end of its line, the label
// matched as written: "Our price:" does not precede a value after "Our
// price:" spelt with two spaces. Verify is narrowed to the regions, so a
// span that crosses a line no longer verifies.
var precededBy = labelFeature("preceded-by", "label", func(v string) lang {
	return lang{regions: afterLabel, check: adjacentAfter, p: param{label: strings.ToLower(v)}}
})

// followedBy declares followed-by(s)="label", the mirror of preceded-by:
// s lies on one line, before an occurrence of the label with only
// whitespace between.
var followedBy = labelFeature("followed-by", "label", func(v string) lang {
	return lang{regions: beforeLabel, check: adjacentBefore, p: param{label: strings.ToLower(v)}}
})

func afterLabel(dst []byteRange, d *text.Document, p *param) []byteRange {
	n := len(dst)
	dst = occurrences(dst, d, p.label)
	for i, o := range dst[n:] {
		dst[n+i] = byteRange{o.end, d.LineEnd(o.end)}
	}
	return dst
}

func beforeLabel(dst []byteRange, d *text.Document, p *param) []byteRange {
	n := len(dst)
	dst = occurrences(dst, d, p.label)
	for i, o := range dst[n:] {
		dst[n+i] = byteRange{d.LineStart(o.start), o.start}
	}
	return dst
}

// adjacentAfter and adjacentBefore are the label features' residuals: only
// whitespace between s and its region's label. A span failing it has no
// sub-span passing it.
func adjacentAfter(s text.Span, r byteRange, _ *param) bool {
	return blank(s.Doc().Text()[r.start:s.Start()])
}

func adjacentBefore(s text.Span, r byteRange, _ *param) bool {
	return blank(s.Doc().Text()[s.End():r.end])
}

func blank(s string) bool { return strings.TrimLeft(s, " \t\r\n") == "" }

// occurrences appends the occurrences of needle, lower-cased, in the
// document. Overlapping occurrences are all reported ("aa" occurs twice in
// "aaa"). The document's cached lower-cased text is searched when lowering
// preserved byte offsets; otherwise (Unicode case mappings that change byte
// length) the text is folded rune by rune at each offset.
func occurrences(dst []byteRange, d *text.Document, needle string) []byteRange {
	if lower := d.LowerText(); len(lower) == d.Len() {
		for i := 0; i < len(lower); i++ {
			k := strings.Index(lower[i:], needle)
			if k < 0 {
				break
			}
			i += k
			dst = append(dst, byteRange{i, i + len(needle)})
		}
		return dst
	}
	body := d.Text()
	for i := range body {
		if n, ok := foldedPrefix(body[i:], needle); ok {
			dst = append(dst, byteRange{i, i + n})
		}
	}
	return dst
}

// foldedPrefix reports whether s, lower-cased rune by rune, starts with
// needle, and how many bytes of s that takes.
func foldedPrefix(s, needle string) (int, bool) {
	n := 0
	var buf [utf8.UTFMax]byte
	for needle != "" {
		if n >= len(s) {
			return 0, false
		}
		r, w := utf8.DecodeRuneInString(s[n:])
		l := buf[:utf8.EncodeRune(buf[:], unicode.ToLower(r))]
		if !strings.HasPrefix(needle, string(l)) {
			return 0, false
		}
		needle, n = needle[len(l):], n+w
	}
	return n, true
}

// precLabelContains declares prec-label-contains(s)="str": s lies in the
// section of a header containing str (one of the "higher-level" features
// of Section 6.3). A section runs from its header to the next one. Verify
// is narrowed to the section, so a span that crosses into the next one no
// longer verifies, and the constraint is hereditary.
var precLabelContains = labelFeature("prec-label-contains", "string", func(v string) lang {
	return lang{regions: sections, p: param{n: -1, label: normFold(v)}}
})

// precLabelMaxDist declares prec-label-max-dist(s)=n: s lies in a section,
// within its first n bytes after the header. Verify is narrowed from where
// s starts to the whole of s, so the constraint is hereditary.
var precLabelMaxDist = &builtin{name: "prec-label-max-dist", kind: KindParametric, lang: func(v string) (lang, error) {
	n, err := intBound("prec-label-max-dist", v)
	return lang{regions: sections, p: param{n: n}}, err
}}

// sections lists the first p.n bytes of every section or, with n = -1, each
// section whose header contains p.label. A header with another nested in
// it has no section: the next header starts before it ends.
func sections(dst []byteRange, d *text.Document, p *param) []byteRange {
	headers := d.MarksOf(text.MarkHeader)
	for i, h := range headers {
		end := d.Len()
		if i+1 < len(headers) {
			end = headers[i+1].Start
		}
		if p.n >= 0 {
			end = min(end, h.End+p.n)
		}
		if h.End <= end && (p.n >= 0 || strings.Contains(normFold(d.Text()[h.Start:h.End]), p.label)) {
			dst = append(dst, byteRange{h.End, end})
		}
	}
	return dst
}

// linkToContains declares link-to-contains(s)="str": s lies inside a
// hyperlink whose target URL contains str (case-insensitive). Useful for
// attributes that always link to a known site section.
var linkToContains = labelFeature("link-to-contains", "string", func(v string) lang {
	return lang{regions: linksTo, p: param{label: strings.ToLower(v)}}
})

// linksTo lists the matching links but those inside another: a span in one
// lies in the other. Links come sorted by start, so one inside the last
// kept ends no later, and one around it starts with it and ends later.
func linksTo(dst []byteRange, d *text.Document, p *param) []byteRange {
	first := len(dst)
	for _, l := range d.Links() {
		if n := len(dst); !strings.Contains(strings.ToLower(l.Target), p.label) || n > first && l.End <= dst[n-1].end {
			continue
		} else if n > first && l.Start == dst[n-1].start {
			dst = dst[:n-1]
		}
		dst = append(dst, byteRange{l.Start, l.End})
	}
	return dst
}

// inFirstHalf declares the location feature of Section 5.1.1: "does this
// attribute lie entirely in the first half of the page?" yes is the first
// half as a region; no is a span ending after the midpoint.
var inFirstHalf = &builtin{name: "in-first-half", kind: KindBoolean, lang: func(v string) (lang, error) {
	switch v {
	case Yes, DistinctYes:
		return lang{regions: firstHalf}, nil
	case No:
		return lang{regions: whole, check: endsLate}, nil
	}
	return lang{}, errBadValue("in-first-half", v)
}}

func firstHalf(dst []byteRange, d *text.Document, _ *param) []byteRange {
	return append(dst, byteRange{0, d.Len() / 2})
}

func endsLate(s text.Span, _ byteRange, _ *param) bool { return s.End() > s.Doc().Len()/2 }
