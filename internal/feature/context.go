package feature

import (
	"fmt"
	"strconv"
	"strings"

	"iflex/internal/text"
)

// normFold normalises whitespace and case for context comparisons.
func normFold(s string) string {
	return strings.ToLower(strings.Join(strings.Fields(s), " "))
}

// precededByFeature implements preceded-by(s)="label": the text on s's
// line immediately before s ends with the label (case- and
// whitespace-insensitive). Values are assumed not to cross line boundaries
// (records in the corpora are line-structured).
type precededByFeature struct{}

func (precededByFeature) Name() string { return "preceded-by" }
func (precededByFeature) Kind() Kind   { return KindParametric }

func (precededByFeature) Verify(s text.Span, v string) (bool, error) {
	if v == "" {
		return false, fmt.Errorf("feature: preceded-by needs a non-empty label")
	}
	d := s.Doc()
	pre := d.Text()[d.LineStart(s.Start()):s.Start()]
	return strings.HasSuffix(normFold(pre), normFold(v)), nil
}

// occurrences finds case-insensitive occurrences of label in the
// document's [lo, hi) window, returning (start, end) offsets in document
// coordinates. Overlapping occurrences are all reported ("aa" occurs
// twice in "aaa"). The document's cached lower-cased text is used when
// lowering preserved byte offsets; otherwise (Unicode case mappings that
// change byte length) the window is folded per call.
func occurrences(d *text.Document, label string, lo, hi int) [][2]int {
	var window string
	if lower := d.LowerText(); len(lower) == d.Len() {
		window = lower[lo:hi]
	} else {
		window = strings.ToLower(d.Text()[lo:hi])
	}
	needle := strings.ToLower(label)
	var out [][2]int
	from := 0
	for {
		i := strings.Index(window[from:], needle)
		if i < 0 {
			return out
		}
		start := from + i
		out = append(out, [2]int{lo + start, lo + start + len(needle)})
		from = start + 1
	}
}

func (precededByFeature) Refine(s text.Span, v string) ([]text.Assignment, error) {
	if v == "" {
		return nil, fmt.Errorf("feature: preceded-by needs a non-empty label")
	}
	d := s.Doc()
	// Labels may sit just before s's start, so search a window that begins
	// at the start of the line containing s.
	rs := make([]byteRange, 0, 8)
	for _, occ := range occurrences(d, v, d.LineStart(s.Start()), s.End()) {
		rs = append(rs, byteRange{occ[1], d.LineEnd(occ[1])})
	}
	return containRegions(s, rs), nil
}

// followedByFeature implements followed-by(s)="label": the text on s's
// line immediately after s begins with the label.
type followedByFeature struct{}

func (followedByFeature) Name() string { return "followed-by" }
func (followedByFeature) Kind() Kind   { return KindParametric }

func (followedByFeature) Verify(s text.Span, v string) (bool, error) {
	if v == "" {
		return false, fmt.Errorf("feature: followed-by needs a non-empty label")
	}
	d := s.Doc()
	post := d.Text()[s.End():d.LineEnd(s.End())]
	return strings.HasPrefix(normFold(post), normFold(v)), nil
}

func (followedByFeature) Refine(s text.Span, v string) ([]text.Assignment, error) {
	if v == "" {
		return nil, fmt.Errorf("feature: followed-by needs a non-empty label")
	}
	d := s.Doc()
	rs := make([]byteRange, 0, 8)
	for _, occ := range occurrences(d, v, s.Start(), d.LineEnd(s.End())) {
		rs = append(rs, byteRange{d.LineStart(occ[0]), occ[0]})
	}
	return containRegions(s, rs), nil
}

// precLabelContains implements prec-label-contains(s)="str": the closest
// section header preceding s contains str (one of the "higher-level"
// features of Section 6.3).
type precLabelContains struct{}

func (precLabelContains) Name() string { return "prec-label-contains" }
func (precLabelContains) Kind() Kind   { return KindParametric }

func (precLabelContains) Verify(s text.Span, v string) (bool, error) {
	if v == "" {
		return false, fmt.Errorf("feature: prec-label-contains needs a non-empty string")
	}
	h, ok := s.Doc().HeaderBefore(s.Start())
	if !ok {
		return false, nil
	}
	label := s.Doc().Text()[h.Start:h.End]
	return strings.Contains(normFold(label), normFold(v)), nil
}

func (precLabelContains) Refine(s text.Span, v string) ([]text.Assignment, error) {
	if v == "" {
		return nil, fmt.Errorf("feature: prec-label-contains needs a non-empty string")
	}
	d := s.Doc()
	body := d.Text()
	headers := d.MarksOf(text.MarkHeader)
	rs := make([]byteRange, 0, 8)
	for i, h := range headers {
		if !strings.Contains(normFold(body[h.Start:h.End]), normFold(v)) {
			continue
		}
		// The section governed by this header runs to the next header.
		end := len(body)
		if i+1 < len(headers) {
			end = headers[i+1].Start
		}
		rs = append(rs, byteRange{h.End, end})
	}
	return containRegions(s, rs), nil
}

// precLabelMaxDist implements prec-label-max-dist(s)=n: the distance in
// bytes from the end of the preceding header to the start of s is <= n.
type precLabelMaxDist struct{}

func (precLabelMaxDist) Name() string { return "prec-label-max-dist" }
func (precLabelMaxDist) Kind() Kind   { return KindParametric }

func (precLabelMaxDist) bound(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("feature: prec-label-max-dist needs a non-negative integer, got %q", v)
	}
	return n, nil
}

func (f precLabelMaxDist) Verify(s text.Span, v string) (bool, error) {
	n, err := f.bound(v)
	if err != nil {
		return false, err
	}
	h, ok := s.Doc().HeaderBefore(s.Start())
	if !ok {
		return false, nil
	}
	return s.Start()-h.End <= n, nil
}

func (f precLabelMaxDist) Refine(s text.Span, v string) ([]text.Assignment, error) {
	n, err := f.bound(v)
	if err != nil {
		return nil, err
	}
	headers := s.Doc().MarksOf(text.MarkHeader)
	rs := make([]byteRange, 0, 8)
	for i, h := range headers {
		end := h.End + n
		if i+1 < len(headers) {
			end = min(end, headers[i+1].Start)
		}
		rs = append(rs, byteRange{h.End, end})
	}
	return containRegions(s, rs), nil
}

// linkToContains implements link-to-contains(s)="str": the span lies
// inside a hyperlink whose target URL contains str (case-insensitive).
// Useful for attributes that always link to a known site section.
type linkToContains struct{}

func (linkToContains) Name() string { return "link-to-contains" }
func (linkToContains) Kind() Kind   { return KindParametric }

func (linkToContains) Verify(s text.Span, v string) (bool, error) {
	if v == "" {
		return false, fmt.Errorf("feature: link-to-contains needs a non-empty string")
	}
	l, ok := s.Doc().LinkAt(s.Start())
	if !ok || s.End() > l.End {
		return false, nil
	}
	return strings.Contains(strings.ToLower(l.Target), strings.ToLower(v)), nil
}

func (linkToContains) Refine(s text.Span, v string) ([]text.Assignment, error) {
	if v == "" {
		return nil, fmt.Errorf("feature: link-to-contains needs a non-empty string")
	}
	rs := make([]byteRange, 0, 8)
	for _, l := range s.Doc().Links() {
		if strings.Contains(strings.ToLower(l.Target), strings.ToLower(v)) {
			rs = append(rs, byteRange{l.Start, l.End})
		}
	}
	return containRegions(s, rs), nil
}

// inFirstHalf implements the location feature of Section 5.1.1: "does this
// attribute lie entirely in the first half of the page?"
type inFirstHalf struct{}

func (inFirstHalf) Name() string { return "in-first-half" }
func (inFirstHalf) Kind() Kind   { return KindBoolean }

func (inFirstHalf) Verify(s text.Span, v string) (bool, error) {
	mid := s.Doc().Len() / 2
	switch v {
	case Yes, DistinctYes:
		return s.End() <= mid, nil
	case No:
		return s.End() > mid, nil
	default:
		return false, errBadValue("in-first-half", v)
	}
}

func (inFirstHalf) Refine(s text.Span, v string) ([]text.Assignment, error) {
	// Spans ending after the midpoint (no) may start anywhere.
	hi := s.End()
	switch v {
	case Yes, DistinctYes:
		hi = s.Doc().Len() / 2
	case No:
	default:
		return nil, errBadValue("in-first-half", v)
	}
	return containRegions(s, []byteRange{{s.Start(), hi}}), nil
}
