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
//
// The built-ins do not write that contract twice. Each declares, per value,
// the span language f = v denotes (lang.go), and one adapter derives
// Verify, Refine and Hereditary from the declaration:
//
//   - regions: maximal byte ranges of the page that hold every span with
//     f = v, sorted by start;
//   - exact or contain: an exact span is a whole region, token-trimmed; a
//     contain span lies inside one region, starting or ending where it
//     does when the language pins that end;
//   - an optional residual check for what the regions do not decide, with
//     whether a clipped region failing it can still hold a passing span.
//
// Verify(s) is "s is a region (exact), or lies inside one and passes the
// residual"; Refine(s) is exact(r) for the regions inside s, or contain of
// the regions clipped to s, less those the residual rules out. Every span
// Verify accepts inside s lies in one of those, so Refine covers Verify by
// construction. f = v is hereditary (Cons.Hereditary) when it is contain
// with no residual: then each token-aligned sub-span t of a span that
// passed it has Verify(t) and Refine(t) = [contain(t)]. f = v is
// self-stable (Cons.SelfStable) when it is exact or pins neither end: then
// re-applying it to what its Refine returned changes nothing. Features
// registered by a deployment still write Verify and Refine themselves, and
// Hereditary if they have it; they are never self-stable.
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

// builtins lists every built-in feature.
func builtins() []Feature {
	return []Feature{
		numericFeature,
		valueFeature("min-value", +1),
		valueFeature("max-value", -1),
		lengthFeature("max-length", true, false),
		lengthFeature("min-length", false, false),
		lengthFeature("max-tokens", true, true),
		lengthFeature("min-tokens", false, true),
		patternFeature("starts-with", anchorStart),
		patternFeature("ends-with", anchorEnd),
		patternFeature("matches", anchorBoth),
		capitalizedFeature,
		precededBy,
		followedBy,
		precLabelContains,
		precLabelMaxDist,
		inFirstHalf,
		linkToContains,
		markFeature("bold-font", text.MarkBold),
		markFeature("italic-font", text.MarkItalic),
		markFeature("underlined", text.MarkUnderline),
		markFeature("hyperlinked", text.MarkLink),
		markFeature("in-list", text.MarkListItem),
		markFeature("in-title", text.MarkTitle),
	}
}

// errBadValue builds the standard error for an unsupported feature value.
func errBadValue(feat, v string) error {
	return fmt.Errorf("feature: %s does not support value %q", feat, v)
}

// byteRange is a [start, end) range of a document's text.
type byteRange struct{ start, end int }
