package feature

import (
	"cmp"
	"regexp"
	"slices"
	"sort"

	"iflex/internal/text"
)

// lang is the span language one built-in value denotes (the package
// comment): the declaration Verify, Refine, Hereditary and SelfStable are
// derived from.
type lang struct {
	// regions appends to dst, leaving what it holds alone, the page's
	// regions: maximal ranges holding every span of the language. Sorted by
	// start, their ends never decrease unless the language pins starts.
	regions func(dst []byteRange, d *text.Document, p *param) []byteRange
	// exact: a span of the language is a whole region, token-trimmed.
	exact bool
	// pinStart (pinEnd): a span of the language starts (ends) where its
	// region does.
	pinStart, pinEnd bool
	// check is the residual a contain span inside region r must pass, or
	// nil. Unless open, a span failing it has no token-aligned sub-span
	// passing it, so Refine drops a clipped region that fails it.
	check func(s text.Span, r byteRange, p *param) bool
	open  bool
	p     param
}

// param is a value parsed once per language, for regions and check to read.
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

// list appends l's regions over d to dst, sorted by start and then end.
func (l *lang) list(dst []byteRange, d *text.Document) []byteRange {
	n := len(dst)
	dst = l.regions(dst, d, &l.p)
	slices.SortFunc(dst[n:], func(a, b byteRange) int { return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end)) })
	return dst
}

// verify reports whether one of rs holds s: s is the region, token-trimmed,
// of an exact language, or lies inside it, at its pinned end, and passes
// its residual.
func (l *lang) verify(rs []byteRange, s text.Span) bool {
	for _, r := range rs {
		if l.exact {
			if sp, ok := s.Doc().Span(r.start, r.end).Shrink(); ok && sp == s {
				return true
			}
		} else if r.start <= s.Start() && s.End() <= r.end && (!l.pinStart || r.start == s.Start()) &&
			(!l.pinEnd || r.end == s.End()) && (l.check == nil || l.check(s, r, &l.p)) {
			return true
		}
	}
	return false
}

// refine appends to out, whose elements it leaves alone, what Refine(s)
// returns given l's regions in start order (all, or those near s): exact(r)
// for each region of an exact language inside s; otherwise contain of each
// region with its pinned end in s, clipped to s and token-trimmed, less the
// ones the residual rules out and the ones another covers.
func (l *lang) refine(out []text.Assignment, rs []byteRange, s text.Span) []text.Assignment {
	d, first := s.Doc(), len(out)
	for _, r := range rs {
		if l.exact {
			if sp, ok := d.Span(r.start, r.end).Shrink(); ok && s.Contains(sp) {
				out = append(out, text.ExactOf(sp))
			}
			continue
		}
		lo, hi := max(r.start, s.Start()), min(r.end, s.End())
		if lo >= hi || l.pinStart && r.start < s.Start() || l.pinEnd && r.end > s.End() {
			continue
		}
		sp, ok := d.Span(lo, hi).Shrink()
		if !ok || !l.open && l.check != nil && !l.check(sp, r, &l.p) {
			continue
		}
		// Starts never decrease, so sp is covered by the last one kept when
		// it ends no later, and covers it when both start together.
		if n := len(out); n > first && sp.End() <= out[n-1].Span.End() {
			continue
		} else if n > first && sp.Start() == out[n-1].Span.Start() {
			out = out[:n-1]
		}
		out = append(out, text.ContainOf(sp))
	}
	return out
}

// near returns the part of rs, l's regions over the page, that touches s
// with its pinned end inside it: every region that may hold s or a
// sub-span of s. Starts never decrease, nor do ends unless the language
// pins starts, so both bounds are binary searches.
func (l *lang) near(rs []byteRange, s text.Span) []byteRange {
	lo := sort.Search(len(rs), func(i int) bool { return rs[i].end >= s.Start() })
	if l.pinStart {
		lo = sort.Search(len(rs), func(i int) bool { return rs[i].start >= s.Start() })
	}
	hi := sort.Search(len(rs), func(i int) bool { return rs[i].start > s.End() || l.pinEnd && rs[i].end > s.End() })
	return rs[lo:max(lo, hi)]
}

// Verify is verify over every region of the page.
func (b *builtin) Verify(s text.Span, v string) (bool, error) {
	l, err := b.lang(v)
	if err != nil {
		return false, err
	}
	return l.verify(l.list(nil, s.Doc()), s), nil
}

// Refine is refine over every region of the page.
func (b *builtin) Refine(s text.Span, v string) ([]text.Assignment, error) {
	l, err := b.lang(v)
	if err != nil {
		return nil, err
	}
	return l.refine(nil, l.list(nil, s.Doc()), s), nil
}

// resolve makes the handle of f = v: a built-in's language, unless it
// rejects v, and whether f = v is hereditary — for a built-in, when the
// language is contain with no residual; another feature says so by a
// method of that name, asked here once.
//
// A built-in is self-stable when its language is exact or pins neither
// end. Exact: Refine emits r token-trimmed for a region r inside s, which
// verify finds among the regions near it. Unpinned contain: Refine emits x,
// r clipped to s and trimmed, when the residual passes (x, r) or is open.
// Refining x clips r to x, which passes again; any other region clips to a
// sub-span of x starting where x does (a token start), which x replaces or
// covers, or later, after r, which x covers: the answer is [contain(x)].
// Pinned, an x trimmed off a region end that is no token boundary finds no
// region pinned there. A feature a deployment registers never is.
func resolve(f Feature, v string) *Cons {
	c := &Cons{Feature: f, Value: v}
	if b, ok := f.(*builtin); ok {
		var err error
		c.lang, err = b.lang(v)
		c.Declared = err == nil
		c.Hereditary = c.Declared && !c.lang.exact && c.lang.check == nil
		c.SelfStable = c.Declared && (c.lang.exact || !c.lang.pinStart && !c.lang.pinEnd)
	} else if h, ok := f.(interface{ Hereditary(v string) bool }); ok {
		c.Hereditary = h.Hereditary(v)
	}
	return c
}

// whole is the one region of languages a residual alone decides.
func whole(dst []byteRange, d *text.Document, _ *param) []byteRange {
	return append(dst, byteRange{0, d.Len()})
}
