package feature

import (
	"fmt"
	"regexp"
	"strconv"
	"unicode"

	"iflex/internal/text"
)

// intBound parses a non-negative integer parameter of feature name.
func intBound(name, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("feature: %s needs a non-negative integer, got %q", name, v)
	}
	return n, nil
}

// lengthFeature declares max-length(s)=n / min-length(s)=n over the span's
// byte length, and max-tokens / min-tokens over its whole-token count.
// max-* is hereditary: its regions are the longest token runs within the
// bound, one from each token. min-* is the page with a residual, which no
// sub-span of a span failing it passes.
func lengthFeature(name string, atMost, tokens bool) *builtin {
	return &builtin{name: name, kind: KindParametric, lang: func(v string) (lang, error) {
		n, err := intBound(name, v)
		if atMost {
			return lang{regions: runs, p: param{n: n, tokens: tokens}}, err
		}
		return lang{regions: whole, check: long, p: param{n: n, tokens: tokens}}, err
	}}
}

// runs lists, from each token, the longest run of tokens whose length
// stays within p.n, but one ending where the run before it does, which
// holds nothing more.
func runs(dst []byteRange, d *text.Document, p *param) []byteRange {
	toks, first := d.Tokens(), len(dst)
	fits := func(i, j int) bool {
		if p.tokens {
			return j-i < p.n
		}
		return toks[j].End-toks[i].Start <= p.n
	}
	for i := range toks {
		if !fits(i, i) {
			continue
		}
		j := i
		for j+1 < len(toks) && fits(i, j+1) {
			j++
		}
		if n := len(dst); n == first || dst[n-1].end < toks[j].End {
			dst = append(dst, byteRange{toks[i].Start, toks[j].End})
		}
	}
	return dst
}

func long(s text.Span, _ byteRange, p *param) bool {
	if p.tokens {
		return s.NumTokens() >= p.n
	}
	return s.Len() >= p.n
}

// anchorMode controls where patternFeature anchors its regular expression.
type anchorMode int

const (
	anchorStart anchorMode = iota // starts-with
	anchorEnd                     // ends-with
	anchorBoth                    // matches (full match)
)

// patternFeature declares starts-with(s)=re, ends-with(s)=re and
// matches(s)=re with Go regular expressions, anchored as the name says,
// over the span's text as written: "Price:  120" (two spaces) does not
// match "Price: [0-9]+". Each token of s is tested on its own line, so no
// region depends on where s starts: starts-with has a region from a token
// the pattern matches from to the end of the page; ends-with one from the
// start of the page to a token end the text of its line matches up to;
// matches one from a token to the furthest token end on its line that the
// whole pattern spans. Verify is narrowed to them. A span of the language
// starts where its region does (ends, for ends-with): the token it was
// found from. The residual is the anchored pattern on s; a span failing it
// may hold one passing it, so Refine keeps every region.
func patternFeature(name string, anchor anchorMode) *builtin {
	return &builtin{name: name, kind: KindParametric, lang: func(v string) (lang, error) {
		re, err := compilePattern(v, anchor)
		return lang{regions: patternRegions, pinStart: anchor != anchorEnd, pinEnd: anchor == anchorEnd,
			check: matchesAnchored, open: true, p: param{re: re, anchor: anchor}}, err
	}}
}

func patternRegions(dst []byteRange, d *text.Document, p *param) []byteRange {
	toks, body := d.Tokens(), d.Text()
	for i, t := range toks {
		switch p.anchor {
		case anchorStart:
			if p.re.MatchString(body[t.Start:d.LineEnd(t.Start)]) {
				dst = append(dst, byteRange{t.Start, d.Len()})
			}
		case anchorEnd:
			if p.re.MatchString(body[d.LineStart(t.Start):t.End]) {
				dst = append(dst, byteRange{0, t.End})
			}
		default:
			end, le := -1, d.LineEnd(t.Start)
			for _, u := range toks[i:] {
				if u.End > le {
					break
				} else if p.re.MatchString(body[t.Start:u.End]) {
					end = u.End
				}
			}
			if end >= 0 {
				dst = append(dst, byteRange{t.Start, end})
			}
		}
	}
	return dst
}

func matchesAnchored(s text.Span, _ byteRange, p *param) bool { return p.re.MatchString(s.Text()) }

// compilePattern compiles the pattern anchored as requested.
func compilePattern(pat string, anchor anchorMode) (*regexp.Regexp, error) {
	src := `\A(?:` + pat + `)\z`
	switch anchor {
	case anchorStart:
		src = `\A(?:` + pat + ")"
	case anchorEnd:
		src = "(?:" + pat + `)\z`
	}
	re, err := regexp.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("feature: bad pattern %q: %w", pat, err)
	}
	return re, nil
}

// capitalizedFeature declares capitalized: every token of the span starts
// with an upper-case letter (yes) or not (no). Useful for names and titles.
// yes is hereditary: its regions are the maximal runs of capitalised
// tokens. no is the page with a residual, which no sub-span of a span
// failing it passes.
var capitalizedFeature = &builtin{name: "capitalized", kind: KindBoolean, lang: func(v string) (lang, error) {
	switch v {
	case Yes, DistinctYes:
		return lang{regions: capitalRuns}, nil
	case No:
		return lang{regions: whole, check: notCapitalized}, nil
	}
	return lang{}, errBadValue("capitalized", v)
}}

func tokenCapitalized(tok string) bool {
	for _, r := range tok {
		if unicode.IsLetter(r) {
			return unicode.IsUpper(r)
		}
		if unicode.IsDigit(r) {
			return true // numeric tokens don't break capitalisation
		}
	}
	return false
}

// capitalRuns lists the maximal runs of capitalised tokens.
func capitalRuns(dst []byteRange, d *text.Document, _ *param) []byteRange {
	body, toks := d.Text(), d.Tokens()
	for i := 0; i < len(toks); i++ {
		j := i
		for j < len(toks) && tokenCapitalized(body[toks[j].Start:toks[j].End]) {
			j++
		}
		if j > i {
			dst = append(dst, byteRange{toks[i].Start, toks[j-1].End})
			i = j
		}
	}
	return dst
}

func notCapitalized(s text.Span, _ byteRange, _ *param) bool {
	lo, hi := s.TokenBounds()
	toks := s.Doc().Tokens()
	for _, t := range toks[lo:hi] {
		if !tokenCapitalized(s.Doc().Text()[t.Start:t.End]) {
			return true
		}
	}
	return lo >= hi
}
