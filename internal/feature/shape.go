package feature

import (
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"unicode"

	"iflex/internal/text"
)

// lengthFeature implements max-length(s)=n / min-length(s)=n over the
// span's byte length.
type lengthFeature struct {
	name string
	max  bool
}

func (f lengthFeature) Name() string             { return f.name }
func (f lengthFeature) Kind() Kind               { return KindParametric }
func (f lengthFeature) Hereditary(v string) bool { _, err := f.bound(v); return f.max && err == nil }

func (f lengthFeature) bound(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("feature: %s needs a non-negative integer, got %q", f.name, v)
	}
	return n, nil
}

func (f lengthFeature) Verify(s text.Span, v string) (bool, error) {
	n, err := f.bound(v)
	if err != nil {
		return false, err
	}
	if f.max {
		return s.Len() <= n, nil
	}
	return s.Len() >= n, nil
}

func (f lengthFeature) Refine(s text.Span, v string) ([]text.Assignment, error) {
	n, err := f.bound(v)
	if err != nil {
		return nil, err
	}
	if !f.max {
		// min-length cannot shrink contain assignments usefully (short
		// sub-spans of a long region fail the constraint, but long ones
		// pass); return contain(s) unchanged. Superset-safe; exact spans
		// are filtered precisely by Verify in the engine's Case 1.
		if sp, ok := s.Shrink(); ok && sp.Len() >= n {
			return []text.Assignment{text.ContainOf(sp)}, nil
		}
		return nil, nil
	}
	// max-length: maximal token runs whose byte length stays <= n.
	// Every sub-span of such a run is itself <= n, so contain is precise,
	// and every short sub-span extends to some maximal run: covering.
	lo, hi := s.TokenBounds()
	toks := s.Doc().Tokens()
	var out []text.Assignment
	i := lo
	for i < hi {
		if toks[i].End-toks[i].Start > n {
			i++
			continue
		}
		j := i
		for j+1 < hi && toks[j+1].End-toks[i].Start <= n {
			j++
		}
		sp := s.Doc().Span(toks[i].Start, toks[j].End)
		// Only emit maximal runs: skip if the previous emitted run already
		// ends at or beyond this one's end.
		if len(out) == 0 || out[len(out)-1].Span.End() < sp.End() {
			out = append(out, text.ContainOf(sp))
		}
		i++
	}
	return out, nil
}

// tokensFeature implements max-tokens(s)=n / min-tokens(s)=n over the
// span's whole-token count.
type tokensFeature struct {
	name string
	max  bool
}

func (f tokensFeature) Name() string             { return f.name }
func (f tokensFeature) Kind() Kind               { return KindParametric }
func (f tokensFeature) Hereditary(v string) bool { _, err := f.bound(v); return f.max && err == nil }

func (f tokensFeature) bound(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("feature: %s needs a non-negative integer, got %q", f.name, v)
	}
	return n, nil
}

func (f tokensFeature) Verify(s text.Span, v string) (bool, error) {
	n, err := f.bound(v)
	if err != nil {
		return false, err
	}
	if f.max {
		return s.NumTokens() <= n, nil
	}
	return s.NumTokens() >= n, nil
}

func (f tokensFeature) Refine(s text.Span, v string) ([]text.Assignment, error) {
	n, err := f.bound(v)
	if err != nil {
		return nil, err
	}
	sp, ok := s.Shrink()
	if !ok {
		return nil, nil
	}
	if !f.max {
		if sp.NumTokens() >= n {
			return []text.Assignment{text.ContainOf(sp)}, nil
		}
		return nil, nil
	}
	// max-tokens: sliding windows of n tokens are the maximal runs.
	total := sp.NumTokens()
	if total <= n {
		return []text.Assignment{text.ContainOf(sp)}, nil
	}
	var out []text.Assignment
	for i := 0; n > 0 && i+n <= total; i++ {
		out = append(out, text.ContainOf(sp.TokenSpan(i, i+n)))
	}
	return out, nil
}

// anchorMode controls where patternFeature anchors its regular expression.
type anchorMode int

const (
	anchorStart anchorMode = iota // starts-with
	anchorEnd                     // ends-with
	anchorBoth                    // matches (full match)
)

// patternFeature implements starts-with(s)=re, ends-with(s)=re and
// matches(s)=re with Go regular expressions over the span's normalised
// text. Refine over-approximates (contain assignments anchored at pattern
// occurrences), which is superset-safe; exact spans are later filtered
// precisely by Verify.
type patternFeature struct {
	name   string
	anchor anchorMode
}

var (
	reCacheMu sync.RWMutex
	reCache   = map[string]*regexp.Regexp{}
)

// compilePattern compiles and caches the pattern anchored as requested.
// Verify/Refine call it on every span, concurrently once evaluation is
// parallel, so the steady-state hit takes only a read lock; compilation
// happens outside any lock and the write path re-checks (keeping the
// first-stored regexp) in case of a racing miss.
func compilePattern(pat string, anchor anchorMode) (*regexp.Regexp, error) {
	key := pat
	switch anchor {
	case anchorStart:
		key = "\\A(?:" + pat + ")"
	case anchorEnd:
		key = "(?:" + pat + ")\\z"
	case anchorBoth:
		key = "\\A(?:" + pat + ")\\z"
	}
	reCacheMu.RLock()
	re, ok := reCache[key]
	reCacheMu.RUnlock()
	if ok {
		return re, nil
	}
	re, err := regexp.Compile(key)
	if err != nil {
		return nil, fmt.Errorf("feature: bad pattern %q: %w", pat, err)
	}
	reCacheMu.Lock()
	if prev, ok := reCache[key]; ok {
		re = prev
	} else {
		reCache[key] = re
	}
	reCacheMu.Unlock()
	return re, nil
}

func (f patternFeature) Name() string { return f.name }
func (f patternFeature) Kind() Kind   { return KindParametric }

func (f patternFeature) Verify(s text.Span, v string) (bool, error) {
	re, err := compilePattern(v, f.anchor)
	if err != nil {
		return false, err
	}
	return re.MatchString(s.NormText()), nil
}

func (f patternFeature) Refine(s text.Span, v string) ([]text.Assignment, error) {
	// Find unanchored occurrences to locate candidate anchor points.
	re, err := compilePattern(v, anchorMode(-1))
	if err != nil {
		return nil, err
	}
	sp, ok := s.Shrink()
	if !ok {
		return nil, nil
	}
	body := sp.Text()
	locs := re.FindAllStringIndex(body, -1)
	if len(locs) == 0 {
		return nil, nil
	}
	var out []text.Assignment
	emit := func(start, end int) {
		if r, ok2 := s.Doc().Span(start, end).Shrink(); ok2 {
			out = append(out, text.ContainOf(r))
		}
	}
	switch f.anchor {
	case anchorStart:
		// Sub-spans starting at a match may extend to the end of s.
		for _, l := range locs {
			emit(sp.Start()+l[0], sp.End())
		}
	case anchorEnd:
		for _, l := range locs {
			emit(sp.Start(), sp.Start()+l[1])
		}
	default: // matches: the match region itself
		for _, l := range locs {
			emit(sp.Start()+l[0], sp.Start()+l[1])
		}
	}
	return text.DedupAssignments(out), nil
}

// capitalizedFeature: every token of the span starts with an upper-case
// letter (yes) or not (no). Useful for names and titles.
type capitalizedFeature struct{}

func (capitalizedFeature) Name() string             { return "capitalized" }
func (capitalizedFeature) Kind() Kind               { return KindBoolean }
func (capitalizedFeature) Hereditary(v string) bool { return v == Yes }

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

func allCapitalized(s text.Span) bool {
	lo, hi := s.TokenBounds()
	if lo >= hi {
		return false
	}
	toks := s.Doc().Tokens()
	for i := lo; i < hi; i++ {
		if !tokenCapitalized(s.Doc().Text()[toks[i].Start:toks[i].End]) {
			return false
		}
	}
	return true
}

func (capitalizedFeature) Verify(s text.Span, v string) (bool, error) {
	switch v {
	case Yes, DistinctYes:
		return allCapitalized(s), nil
	case No:
		return !allCapitalized(s), nil
	default:
		return false, errBadValue("capitalized", v)
	}
}

func (capitalizedFeature) Refine(s text.Span, v string) ([]text.Assignment, error) {
	if v != Yes && v != DistinctYes && v != No {
		return nil, errBadValue("capitalized", v)
	}
	if v == No {
		// Any sub-span containing at least one non-capitalised token
		// satisfies "no"; such spans are not confined to runs, so the only
		// covering refinement is s itself (when it verifies).
		sp, ok := s.Shrink()
		if !ok || allCapitalized(sp) {
			return nil, nil
		}
		return []text.Assignment{text.ContainOf(sp)}, nil
	}
	// Maximal runs of capitalised tokens; every sub-span of a run verifies.
	const wantCap = true
	lo, hi := s.TokenBounds()
	toks := s.Doc().Tokens()
	var out []text.Assignment
	i := lo
	for i < hi {
		ok := tokenCapitalized(s.Doc().Text()[toks[i].Start:toks[i].End])
		if ok != wantCap {
			i++
			continue
		}
		j := i
		for j+1 < hi {
			nxt := tokenCapitalized(s.Doc().Text()[toks[j+1].Start:toks[j+1].End])
			if nxt != wantCap {
				break
			}
			j++
		}
		out = append(out, text.ContainOf(s.Doc().Span(toks[i].Start, toks[j].End)))
		i = j + 1
	}
	return out, nil
}
