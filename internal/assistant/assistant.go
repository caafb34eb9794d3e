// Package assistant implements iFlex's next-effort assistant (Section 5):
// it selects questions of the form "what is the value of feature f for
// attribute a?", incorporates the developer's answers into the Alog
// program as domain constraints, detects convergence, and drives the
// iterate-execute-refine session loop with subset evaluation and reuse
// (Section 5.2).
package assistant

import (
	"fmt"

	"iflex/internal/alog"
	"iflex/internal/feature"
)

// Question asks for the value of one feature of one extraction attribute,
// e.g. "what is the value of bold-font for extractHouses.p?".
type Question struct {
	Attr    alog.AttrRef
	Feature string
	Kind    feature.Kind
}

// String phrases the question the way iFlex shows it to the developer.
func (q Question) String() string {
	if q.Kind == feature.KindBoolean {
		return fmt.Sprintf("is %s %s?", q.Attr, q.Feature)
	}
	return fmt.Sprintf("what is %s for %s?", q.Feature, q.Attr)
}

// key identifies a question within the asked/known bookkeeping.
func (q Question) key() string { return q.Attr.String() + "|" + q.Feature }

// Answer is the developer's reply. Known=false is "I do not know"
// (probability α in the simulation strategy); otherwise Value is a feature
// value ("yes", "no", "distinct-yes", or a parameter such as "500000").
type Answer struct {
	Value string
	Known bool
}

// DontKnow is the "I do not know" answer.
func DontKnow() Answer { return Answer{} }

// Know returns a known answer with the given value.
func Know(v string) Answer { return Answer{Value: v, Known: true} }

// Oracle answers assistant questions. Experiments use ground-truth-backed
// oracles (the simulated developer); an interactive deployment would
// prompt a human.
type Oracle interface {
	Answer(q Question) Answer
}

// CandidateProvider optionally extends an Oracle with candidate values for
// parametric features, giving the simulation strategy a finite answer set
// V to average over. Oracles that do not implement it restrict simulation
// to boolean features.
type CandidateProvider interface {
	Candidates(attr alog.AttrRef, featureName string) []string
}

// BoolValues is the answer domain V of boolean feature questions.
var BoolValues = []string{feature.Yes, feature.DistinctYes, feature.No}

// QuestionFeatures lists the features the assistant asks about, in the
// fixed order used by the sequential strategy: appearance first, then
// location, then semantics (Section 5.1.1).
var QuestionFeatures = []string{
	"bold-font", "italic-font", "underlined", "hyperlinked",
	"in-list", "in-title", "numeric", "capitalized",
	"in-first-half",
	"preceded-by", "followed-by",
	"min-value", "max-value", "max-length", "max-tokens",
}

// questionSpace enumerates the still-open questions about attrs: all
// (attribute, feature) pairs not yet asked.
func questionSpace(attrs []alog.AttrRef, reg *feature.Registry, asked map[string]bool) []Question {
	var out []Question
	for _, attr := range attrs {
		for _, fname := range QuestionFeatures {
			f, err := reg.Lookup(fname)
			if err != nil {
				continue // feature not registered in this deployment
			}
			q := Question{Attr: attr, Feature: fname, Kind: f.Kind()}
			if asked[q.key()] {
				continue
			}
			out = append(out, q)
		}
	}
	return out
}

// constrained returns the keys of the questions prog's written-out constraints
// already answer: one per (attribute, feature) it constrains.
func constrained(prog *alog.Program) map[string]bool {
	out := map[string]bool{}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.Kind == alog.LitConstraint {
				out[Question{Attr: alog.AttrRef{Pred: r.Head.Pred, Var: l.Cons.Attr}, Feature: l.Cons.Feature}.key()] = true
			}
		}
	}
	return out
}

// negate maps a boolean answer to the constraint value recorded in the
// program. A "no" answer is itself a constraint (f(a) = no); unknown
// answers record nothing.
func constraintValue(ans Answer) (string, bool) {
	if !ans.Known {
		return "", false
	}
	return ans.Value, true
}
