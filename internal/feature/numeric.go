package feature

import (
	"fmt"
	"strconv"

	"iflex/internal/text"
)

// numericFeature declares numeric(s) ∈ {yes, no}: whether the span text is
// a single numeric value (tolerating $, commas, and a decimal point).
// numeric = yes (and distinct-yes) is exact: its regions are the numeric
// tokens. numeric = no widens to one region, the page, whose residual
// rejects one numeric token, so Refine(s) is contain(s) unless s is one: a
// span mixing words and a number ("VLDB 2001", "… Volume 2" in a book
// title) is not numeric, and narrowing to the gaps between numbers would
// lose it.
var numericFeature = &builtin{name: "numeric", kind: KindBoolean, lang: func(v string) (lang, error) {
	switch v {
	case Yes, DistinctYes:
		return lang{regions: numericTokens, exact: true}, nil
	case No:
		return lang{regions: whole, check: notNumber}, nil
	}
	return lang{}, errBadValue("numeric", v)
}}

// valueFeature declares min-value(s)=n (sign > 0) and max-value(s)=n (sign
// < 0): the span is one numeric token whose value is >= n or <= n. These
// are the "semantics" questions of Section 5.1.1 ("what is a maximal value
// for price?").
func valueFeature(name string, sign int) *builtin {
	return &builtin{name: name, kind: KindParametric, lang: func(v string) (lang, error) {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return lang{}, fmt.Errorf("feature: %s needs a numeric value, got %q", name, v)
		}
		return lang{regions: numericTokens, exact: true, p: param{x: x, sign: sign}}, nil
	}}
}

// numericTokens lists the tokens of s that parse as numbers within the
// bound.
func numericTokens(dst []byteRange, s text.Span, p param) []byteRange {
	lo, hi := s.TokenBounds()
	toks := s.Doc().Tokens()
	for _, t := range toks[lo:hi] {
		n, ok := s.Doc().Span(t.Start, t.End).Numeric()
		if ok && (p.sign == 0 || p.sign > 0 && n >= p.x || p.sign < 0 && n <= p.x) {
			dst = append(dst, byteRange{t.Start, t.End})
		}
	}
	return dst
}

// notNumber is numeric = no's residual: s is not one numeric token. A span
// failing it has no other token-aligned sub-span.
func notNumber(s text.Span, _ byteRange, _ param) bool {
	_, ok := s.Numeric()
	return !ok || s.NumTokens() != 1
}
