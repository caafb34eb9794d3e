package assistant

import (
	"strconv"
	"strings"

	"iflex/internal/alog"
	"iflex/internal/feature"
	"iflex/internal/text"
)

// ExampleOracle implements the "more types of feedback" extension
// discussed in Section 5.1.1: instead of answering feature questions one
// by one, the developer marks up one or more sample values per attribute
// (e.g. highlights a title on a page), and the assistant derives feature
// answers by running Verify against the marked examples.
//
// Boolean questions are answered distinct-yes / yes when every example
// verifies that value, and no when every example fails both; mixed
// examples answer "I do not know" (the feature is "sometimes"). For
// preceded-by/followed-by, a label is inferred when every example shares
// the same adjacent text ending in ':' (the common label shape) and the
// feature verifies it on each; other
// parametric features are derived from the examples with slack where a
// safe bound exists (max-length, max-tokens) and left unknown otherwise.
// Every Verify goes through the oracle's own record tables, so a page's
// regions under one value are listed once, not once per question.
type ExampleOracle struct {
	reg      *feature.Registry
	memo     *feature.Memo
	examples map[string][]text.Span
}

// NewExampleOracle builds the oracle from marked-up examples keyed by
// attribute ("pred.var").
func NewExampleOracle(reg *feature.Registry, examples map[alog.AttrRef][]text.Span) *ExampleOracle {
	o := &ExampleOracle{reg: reg, memo: feature.NewMemo(), examples: map[string][]text.Span{}}
	for ref, spans := range examples {
		o.examples[ref.String()] = append([]text.Span(nil), spans...)
	}
	return o
}

// AddExample registers one more marked-up sample value for an attribute.
func (o *ExampleOracle) AddExample(ref alog.AttrRef, s text.Span) {
	o.examples[ref.String()] = append(o.examples[ref.String()], s)
}

// Answer implements Oracle.
func (o *ExampleOracle) Answer(q Question) Answer {
	exs := o.examples[q.Attr.String()]
	if len(exs) == 0 {
		return DontKnow()
	}
	f, err := o.reg.Lookup(q.Feature)
	if err != nil {
		return DontKnow()
	}
	if q.Kind == feature.KindBoolean {
		return o.boolAnswer(f, exs)
	}
	switch q.Feature {
	case "preceded-by":
		return o.adjacentLabel(f, exs, true)
	case "followed-by":
		return o.adjacentLabel(f, exs, false)
	case "max-length":
		longest := 0
		for _, e := range exs {
			if e.Len() > longest {
				longest = e.Len()
			}
		}
		return Know(strconv.Itoa(longest*2 + 8)) // generous slack over the samples
	case "max-tokens":
		most := 0
		for _, e := range exs {
			if n := e.NumTokens(); n > most {
				most = n
			}
		}
		return Know(strconv.Itoa(most*2 + 2))
	default:
		return DontKnow()
	}
}

// boolAnswer verifies each candidate value against every example.
func (o *ExampleOracle) boolAnswer(f feature.Feature, exs []text.Span) Answer {
	allVerify := func(v string) bool {
		for _, e := range exs {
			ok, _, err := o.memo.Verify(f, e, v)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
	switch {
	case allVerify(feature.DistinctYes):
		return Know(feature.DistinctYes)
	case allVerify(feature.Yes):
		return Know(feature.Yes)
	case allVerify(feature.No):
		return Know(feature.No)
	default:
		// The examples disagree: the honest answer is "sometimes".
		return DontKnow()
	}
}

// adjacentLabel infers a shared label next to every example: the trailing
// tokens of the text before it on its line (or the leading token of the
// text after it), ending with ':', identical across examples. Of up to
// three trailing tokens the longest the feature f verifies on the example
// is taken, so a label spelt with two spaces on the page is not inferred
// in a form Verify would reject.
func (o *ExampleOracle) adjacentLabel(f feature.Feature, exs []text.Span, before bool) Answer {
	label := ""
	for _, e := range exs {
		d := e.Doc()
		var candidates []string
		if before {
			pre := strings.Fields(d.Text()[d.LineStart(e.Start()):e.Start()])
			for take := min(3, len(pre)); take >= 1; take-- {
				candidates = append(candidates, strings.Join(pre[len(pre)-take:], " "))
			}
		} else if post := strings.Fields(d.Text()[e.End():d.LineEnd(e.End())]); len(post) > 0 {
			candidates = post[:1]
		}
		candidate := ""
		for _, c := range candidates {
			if ok, _, err := o.memo.Verify(f, e, c); err == nil && ok && strings.HasSuffix(c, ":") {
				candidate = c
				break
			}
		}
		if candidate == "" || label != "" && label != candidate {
			return DontKnow() // no label, or examples carry different labels
		}
		label = candidate
	}
	if label == "" {
		return DontKnow()
	}
	return Know(label)
}

// Candidates implements CandidateProvider so the simulation strategy can
// average over the derived parametric answers.
func (o *ExampleOracle) Candidates(attr alog.AttrRef, featureName string) []string {
	f, err := o.reg.Lookup(featureName)
	if err != nil || f.Kind() != feature.KindParametric {
		return nil
	}
	ans := o.Answer(Question{Attr: attr, Feature: featureName, Kind: feature.KindParametric})
	if !ans.Known {
		return nil
	}
	return []string{ans.Value}
}
