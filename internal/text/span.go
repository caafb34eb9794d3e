package text

import (
	"fmt"
	"strconv"
	"strings"
)

// Span is a byte range [Start, End) of one document. Spans are the values
// that IE predicates extract and that assignments encode. The zero Span is
// invalid (it has no document).
type Span struct {
	doc   *Document
	start int
	end   int
}

// Doc returns the document the span belongs to.
func (s Span) Doc() *Document { return s.doc }

// Start returns the span's starting byte offset (inclusive).
func (s Span) Start() int { return s.start }

// End returns the span's ending byte offset (exclusive).
func (s Span) End() int { return s.end }

// Len returns the span's length in bytes.
func (s Span) Len() int { return s.end - s.start }

// Text returns the raw text covered by the span.
func (s Span) Text() string { return s.doc.content().text[s.start:s.end] }

// NormText returns the span text with whitespace runs collapsed and trimmed.
// Text that needs no rewriting comes back as a slice of the page text, which
// it keeps alive: compare it, hash it or copy it (strings.Clone), but do not
// store it in anything that outlives the evaluation at hand, or a released
// lazy document's content stays resident.
func (s Span) NormText() string { return normalizeSpace(s.Text()) }

// String formats the span for debugging: doc id, range and text.
func (s Span) String() string {
	if s.doc == nil {
		return "<nil span>"
	}
	return fmt.Sprintf("%s[%d:%d]%q", s.doc.id, s.start, s.end, s.Text())
}

// Valid reports whether the span refers to a document.
func (s Span) Valid() bool { return s.doc != nil }

// Equal reports whether two spans denote the same range of the same document.
func (s Span) Equal(o Span) bool {
	return s.doc == o.doc && s.start == o.start && s.end == o.end
}

// Contains reports whether o lies entirely within s (same document).
func (s Span) Contains(o Span) bool {
	return s.doc == o.doc && s.start <= o.start && o.end <= s.end
}

// Overlaps reports whether s and o share at least one byte (same document).
func (s Span) Overlaps(o Span) bool {
	return s.doc == o.doc && s.start < o.end && o.start < s.end
}

// Sub returns the sub-span [start, end) in document coordinates.
// It panics if the range is not inside s.
func (s Span) Sub(start, end int) Span {
	if start < s.start || end > s.end || start > end {
		panic(fmt.Sprintf("text: sub-span [%d,%d) outside %v", start, end, s))
	}
	return Span{doc: s.doc, start: start, end: end}
}

// TokenBounds returns the indices [lo, hi) of document tokens fully
// contained in the span.
func (s Span) TokenBounds() (lo, hi int) { return s.doc.tokenRange(s.start, s.end) }

// NumTokens returns how many whole tokens the span covers.
func (s Span) NumTokens() int {
	lo, hi := s.TokenBounds()
	return hi - lo
}

// TokenSpan returns the span covering document tokens [i, j) of the tokens
// inside s, where i and j index into the token range returned by
// TokenBounds. It panics if the range is empty or out of bounds.
func (s Span) TokenSpan(i, j int) Span {
	lo, hi := s.TokenBounds()
	if i < 0 || lo+j > hi || i >= j {
		panic(fmt.Sprintf("text: token span [%d,%d) outside token range of %v", i, j, s))
	}
	toks := s.doc.content().tokens
	return Span{doc: s.doc, start: toks[lo+i].Start, end: toks[lo+j-1].End}
}

// Shrink returns the span trimmed to whole tokens: it starts at the first
// token boundary >= Start and ends at the last token boundary <= End.
// If the span covers no whole token, ok is false.
func (s Span) Shrink() (Span, bool) {
	lo, hi := s.TokenBounds()
	if lo >= hi {
		return Span{}, false
	}
	toks := s.doc.content().tokens
	return Span{doc: s.doc, start: toks[lo].Start, end: toks[hi-1].End}, true
}

// TokenAligned reports whether Shrink returns s itself.
func (s Span) TokenAligned() bool { sp, ok := s.Shrink(); return ok && sp == s }

// SubSpans enumerates every token-aligned sub-span of s (all contiguous
// token sequences), calling fn for each. Enumeration stops early if fn
// returns false. The count of token-aligned sub-spans of a span with t
// tokens is t*(t+1)/2.
func (s Span) SubSpans(fn func(Span) bool) {
	lo, hi := s.TokenBounds()
	toks := s.doc.content().tokens
	for i := lo; i < hi; i++ {
		for j := i; j < hi; j++ {
			if !fn(Span{doc: s.doc, start: toks[i].Start, end: toks[j].End}) {
				return
			}
		}
	}
}

// NumSubSpans returns the number of token-aligned sub-spans of s.
func (s Span) NumSubSpans() int {
	n := s.NumTokens()
	return n * (n + 1) / 2
}

// Numeric parses the span text as a number, tolerating a leading currency
// symbol and thousands separators ("$1,234.50" -> 1234.5). ok is false when
// the (trimmed) text is not a single numeric token.
func (s Span) Numeric() (float64, bool) {
	return ParseNumeric(s.Text())
}

// ParseNumeric parses a string as a tolerant number: optional leading '$',
// optional sign, digits with ',' thousands separators and at most one '.'.
//
// Most values a comparison sees are not numbers (multi-token phrases,
// labels), and strconv.ParseFloat pays for each with an allocated
// *NumError holding a copy of its input. So the string is first screened,
// without allocating, for what ParseFloat can never accept: a byte outside
// [0-9A-Za-z+-.,_] or a leading letter that starts neither "inf" nor "nan".
func ParseNumeric(raw string) (float64, bool) {
	t := strings.TrimSpace(raw)
	t = strings.TrimPrefix(t, "$")
	if t == "" {
		return 0, false
	}
	if c := t[0] | 0x20; c >= 'a' && c <= 'z' && c != 'i' && c != 'n' {
		return 0, false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= '0' && c <= '9', c|0x20 >= 'a' && c|0x20 <= 'z':
		case c == '+', c == '-', c == '.', c == ',', c == '_':
		default:
			return 0, false
		}
	}
	t = strings.ReplaceAll(t, ",", "")
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// CompareSpans orders spans by document id, then start, then end.
// It returns -1, 0, or +1.
func CompareSpans(a, b Span) int {
	switch {
	case a.doc == b.doc:
		// fall through to offsets
	case a.doc == nil:
		return -1
	case b.doc == nil:
		return 1
	case a.doc.id != b.doc.id:
		if a.doc.id < b.doc.id {
			return -1
		}
		return 1
	}
	if a.start != b.start {
		if a.start < b.start {
			return -1
		}
		return 1
	}
	if a.end != b.end {
		if a.end < b.end {
			return -1
		}
		return 1
	}
	return 0
}
