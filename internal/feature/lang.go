package feature

import (
	"cmp"
	"regexp"
	"slices"
	"sync"

	"iflex/internal/text"
)

// lang is the span language one built-in value denotes (the package
// comment): the declaration Verify, Refine and Hereditary are derived from.
type lang struct {
	// regions appends to dst, which is empty, the regions near s: maximal
	// ranges holding every span of the language. A region that holds a
	// sub-span t of s must be listed for s as for t.
	regions func(dst []byteRange, s text.Span, p param) []byteRange
	// exact: a span of the language is a whole region, token-trimmed.
	exact bool
	// check is the residual a contain span inside region r must pass, or
	// nil. Unless open, a span failing it has no token-aligned sub-span
	// passing it, so Refine drops a clipped region that fails it.
	check func(s text.Span, r byteRange, p param) bool
	open  bool
	p     param
}

// param is a value parsed once per call, for regions and check to read.
type param struct {
	mark   text.MarkKind
	n      int     // a byte, token or distance bound
	tokens bool    // n counts tokens, not bytes
	x      float64 // a numeric bound: ≥ x when sign > 0, ≤ x when sign < 0
	sign   int
	label  string         // a lower-cased label or substring
	re     *regexp.Regexp // a pattern, anchored as its feature reads it
	anchor anchorMode
}

// builtin is a feature declared by lang, which maps a value to its span
// language or rejects it.
type builtin struct {
	name string
	kind Kind
	lang func(v string) (lang, error)
}

func (b *builtin) Name() string { return b.name }
func (b *builtin) Kind() Kind   { return b.kind }

// regionBufs recycles region lists: regions is called through a func value,
// so a buffer on Verify's stack would escape to the heap on every call.
var regionBufs = sync.Pool{New: func() any { return new([]byteRange) }}

// regionsOf returns l's regions near s, sorted by start, in a pooled buffer
// the caller puts back.
func (l *lang) regionsOf(s text.Span) *[]byteRange {
	buf := regionBufs.Get().(*[]byteRange)
	*buf = l.regions((*buf)[:0], s, l.p)
	if byStart := func(a, b byteRange) int { return cmp.Compare(a.start, b.start) }; !slices.IsSortedFunc(*buf, byStart) {
		slices.SortFunc(*buf, byStart)
	}
	return buf
}

// Verify reports whether s is a region of an exact language, or lies inside
// a region and passes its residual.
func (b *builtin) Verify(s text.Span, v string) (bool, error) {
	l, err := b.lang(v)
	if err != nil {
		return false, err
	}
	buf := l.regionsOf(s)
	defer regionBufs.Put(buf)
	for _, r := range *buf {
		if l.exact {
			if sp, ok := s.Doc().Span(r.start, r.end).Shrink(); ok && sp == s {
				return true, nil
			}
		} else if r.start <= s.Start() && s.End() <= r.end && (l.check == nil || l.check(s, r, l.p)) {
			return true, nil
		}
	}
	return false, nil
}

// Refine returns exact(r) for each region of an exact language inside s;
// otherwise contain of each region clipped to s and token-trimmed, less the
// ones the residual rules out and the ones another covers.
func (b *builtin) Refine(s text.Span, v string) ([]text.Assignment, error) {
	l, err := b.lang(v)
	if err != nil {
		return nil, err
	}
	buf := l.regionsOf(s)
	defer regionBufs.Put(buf)
	d := s.Doc()
	var out []text.Assignment
	for _, r := range *buf {
		if l.exact {
			if sp, ok := d.Span(r.start, r.end).Shrink(); ok && s.Contains(sp) {
				out = append(out, text.ExactOf(sp))
			}
			continue
		}
		lo, hi := max(r.start, s.Start()), min(r.end, s.End())
		if lo >= hi {
			continue
		}
		sp, ok := d.Span(lo, hi).Shrink()
		if !ok || !l.open && l.check != nil && !l.check(sp, r, l.p) {
			continue
		}
		// Starts never decrease, so sp is covered by the last one kept when
		// it ends no later, and covers it when both start together.
		if n := len(out); n > 0 && sp.End() <= out[n-1].Span.End() {
			continue
		} else if n > 0 && sp.Start() == out[n-1].Span.Start() {
			out = out[:n-1]
		}
		out = append(out, text.ContainOf(sp))
	}
	return out, nil
}

// Hereditary reports whether f = v is contain with no residual.
func (b *builtin) Hereditary(v string) bool {
	l, err := b.lang(v)
	return err == nil && !l.exact && l.check == nil
}

// whole is the one region of languages a residual alone decides.
func whole(dst []byteRange, s text.Span, _ param) []byteRange {
	return append(dst, byteRange{0, s.Doc().Len()})
}
