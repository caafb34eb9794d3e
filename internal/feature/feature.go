// Package feature implements iFlex's library of text-span features and
// their Verify/Refine procedures (Sections 2.2.2 and 4.2 of the paper).
//
// A domain constraint f(a) = v states that feature f of any text span that
// is a value for attribute a takes value v. Each feature implements
//
//	Verify(s, v)  — does f(s) = v hold?
//	Refine(s, v)  — all maximal sub-spans t of s with f(t) = v, each
//	                encoded as contain(t) (value "yes"-like: every
//	                sub-span still satisfies, or superset-safe) or
//	                exact(t) (value "distinct-yes"-like: the span is
//	                pinned exactly).
//
// Refine may over-approximate (return assignments encoding some values
// that do not satisfy the constraint) but must never under-approximate:
// every sub-span of s satisfying f(t)=v must be covered by the returned
// assignments. That is what preserves the paper's superset execution
// semantics. The engine re-checks earlier constraints with Verify whenever
// later refinement narrows an assignment to an exact span (Section 4.2).
// Some features declare f = v hereditary (Hereditary): each token-aligned
// sub-span t of a span that passed it has Verify(t) and Refine(t) = [contain(t)].
package feature

import (
	"fmt"
	"sort"

	"iflex/internal/text"
)

// Common feature values. Parametric features (preceded-by, max-value, ...)
// use the parameter itself as the value string.
const (
	Yes         = "yes"
	No          = "no"
	DistinctYes = "distinct-yes"
	DistinctNo  = "distinct-no"
	Unknown     = "unknown"
)

// Kind classifies a feature's answer domain, which determines how the
// next-effort assistant phrases questions about it.
type Kind int

const (
	// KindBoolean features answer from {yes, distinct-yes, no}.
	KindBoolean Kind = iota
	// KindParametric features take a free-form parameter as their value
	// (a string, pattern, or number), e.g. preceded-by("Price:").
	KindParametric
)

// Feature is a text-span feature with Verify and Refine procedures.
// Implementations must be stateless and safe for concurrent use.
type Feature interface {
	// Name returns the feature's constraint name, e.g. "bold-font".
	Name() string
	// Kind reports the feature's answer domain.
	Kind() Kind
	// Verify reports whether f(s) = v.
	Verify(s text.Span, v string) (bool, error)
	// Refine returns assignments covering every sub-span t of s with
	// f(t) = v (see the package comment for the covering contract).
	Refine(s text.Span, v string) ([]text.Assignment, error)
}

// Hereditary reports whether f declares f = v hereditary by a method of that name.
func Hereditary(f Feature, v string) bool {
	h, ok := f.(interface{ Hereditary(v string) bool })
	return ok && h.Hereditary(v)
}

// Constraint is a domain constraint f(attr) = value appearing in a
// description rule body.
type Constraint struct {
	Feature string
	Attr    string
	Value   string
}

// String renders the constraint as it appears in Alog source.
func (c Constraint) String() string {
	return fmt.Sprintf("%s(%s)=%q", c.Feature, c.Attr, c.Value)
}

// Registry maps feature names to implementations. The zero value is empty;
// use NewRegistry for one preloaded with every built-in feature.
type Registry struct {
	byName map[string]Feature
}

// NewRegistry returns a registry containing all built-in features.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]Feature)}
	for _, f := range builtins() {
		r.Register(f)
	}
	return r
}

// Register adds a feature. This is how a deployment adds domain-specific
// features (done once, not per Alog program). A name is registered once:
// registering it again, a built-in's included, panics.
func (r *Registry) Register(f Feature) {
	if r.byName == nil {
		r.byName = make(map[string]Feature)
	}
	if _, dup := r.byName[f.Name()]; dup {
		panic(fmt.Sprintf("feature: %q registered twice", f.Name()))
	}
	r.byName[f.Name()] = f
}

// Lookup returns the feature with the given name.
func (r *Registry) Lookup(name string) (Feature, error) {
	f, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("feature: unknown feature %q", name)
	}
	return f, nil
}

// Names returns all registered feature names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// builtins lists every built-in feature implementation.
func builtins() []Feature {
	fs := []Feature{
		numericFeature{},
		paramNumFeature{name: "min-value", min: true},
		paramNumFeature{name: "max-value", min: false},
		lengthFeature{name: "max-length", max: true},
		lengthFeature{name: "min-length", max: false},
		tokensFeature{name: "max-tokens", max: true},
		tokensFeature{name: "min-tokens", max: false},
		patternFeature{name: "starts-with", anchor: anchorStart},
		patternFeature{name: "ends-with", anchor: anchorEnd},
		patternFeature{name: "matches", anchor: anchorBoth},
		capitalizedFeature{},
		precededByFeature{},
		followedByFeature{},
		precLabelContains{},
		precLabelMaxDist{},
		inFirstHalf{},
		linkToContains{},
	}
	for kind, name := range map[text.MarkKind]string{
		text.MarkBold:      "bold-font",
		text.MarkItalic:    "italic-font",
		text.MarkUnderline: "underlined",
		text.MarkLink:      "hyperlinked",
		text.MarkListItem:  "in-list",
		text.MarkTitle:     "in-title",
	} {
		fs = append(fs, markFeature{name: name, kind: kind})
	}
	return fs
}

// errBadValue builds the standard error for an unsupported feature value.
func errBadValue(feat, v string) error {
	return fmt.Errorf("feature: %s does not support value %q", feat, v)
}

// mergeRanges merges overlapping or adjacent [start,end) ranges in place.
// Input must be sorted by start. Returns the merged prefix.
type byteRange struct{ start, end int }

func mergeRanges(rs []byteRange) []byteRange {
	if len(rs) == 0 {
		return rs
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.start <= last.end {
			if r.end > last.end {
				last.end = r.end
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// clipRanges intersects ranges with [lo, hi) in place, dropping empties.
func clipRanges(rs []byteRange, lo, hi int) []byteRange {
	out := rs[:0]
	for _, r := range rs {
		if r.start, r.end = max(r.start, lo), min(r.end, hi); r.start < r.end {
			out = append(out, r)
		}
	}
	return out
}

// complementRanges returns the gaps of sorted, merged ranges within [lo, hi).
func complementRanges(rs []byteRange, lo, hi int) []byteRange {
	var out []byteRange
	cur := lo
	for _, r := range rs {
		if r.start > cur {
			out = append(out, byteRange{cur, r.start})
		}
		if r.end > cur {
			cur = r.end
		}
	}
	if cur < hi {
		out = append(out, byteRange{cur, hi})
	}
	return out
}

// rangesToAssignments converts ranges of s.Doc() into token-trimmed
// assignments with the given mode, dropping ranges holding no whole token.
func rangesToAssignments(d *text.Document, rs []byteRange, mode text.Mode) []text.Assignment {
	var out []text.Assignment
	for _, r := range rs {
		sp, ok := d.Span(r.start, r.end).Shrink()
		if !ok {
			continue
		}
		out = append(out, text.Assignment{Mode: mode, Span: sp})
	}
	return out
}

// containRegions is the Refine result of a region feature: every range
// clipped to s (rs is reused), token-trimmed, wrapped as contain and
// deduplicated.
func containRegions(s text.Span, rs []byteRange) []text.Assignment {
	out := rangesToAssignments(s.Doc(), clipRanges(rs, s.Start(), s.End()), text.Contain)
	if len(out) > 1 {
		out = text.DedupAssignments(out)
	}
	return out
}
