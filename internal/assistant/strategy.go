package assistant

import (
	"errors"
	"fmt"
	"sort"

	"iflex/internal/alog"
	"iflex/internal/feature"
)

// Strategy selects the next questions to ask (Section 5.1).
type Strategy interface {
	// Next picks up to n questions from the open question space.
	Next(s *Session, space []Question, n int) ([]Question, error)
}

// Sequential asks questions in a predefined order: attributes ranked by
// decreasing importance (join participation, use in the query head), then
// the fixed feature order of QuestionFeatures.
type Sequential struct{}

// Next returns the first n open questions in rank order.
func (Sequential) Next(s *Session, space []Question, n int) ([]Question, error) {
	featPos := map[string]int{}
	for i, f := range QuestionFeatures {
		featPos[f] = i
	}
	sorted := append([]Question(nil), space...)
	sort.SliceStable(sorted, func(i, j int) bool {
		ri, rj := s.rank[sorted[i].Attr], s.rank[sorted[j].Attr]
		if ri != rj {
			return ri > rj
		}
		if sorted[i].Attr != sorted[j].Attr {
			return sorted[i].Attr.String() < sorted[j].Attr.String()
		}
		return featPos[sorted[i].Feature] < featPos[sorted[j].Feature]
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n], nil
}

// attrImportance scores attributes in a domain-independent way
// (Section 5.1): participation in p-function joins weighs most, then
// comparisons, then appearing in the query head.
func attrImportance(prog *alog.Program) map[alog.AttrRef]int {
	scores := map[alog.AttrRef]int{}
	for _, attr := range prog.Attrs() {
		score := 0
		// Find call sites of the IE predicate and the caller variable bound
		// to this attribute position.
		for _, desc := range prog.RulesFor(attr.Pred) {
			if !desc.IsDescription(nil) {
				continue
			}
			pos := -1
			for i, t := range desc.Head.Args {
				if t.Kind == alog.TermVar && t.Var == attr.Var {
					pos = i
					break
				}
			}
			if pos < 0 {
				continue
			}
			for _, r := range prog.Rules {
				if r.IsDescription(nil) {
					continue
				}
				callerVars := map[string]bool{}
				for _, l := range r.Body {
					if l.Kind == alog.LitAtom && l.Atom.Pred == attr.Pred && pos < len(l.Atom.Args) {
						if t := l.Atom.Args[pos]; t.Kind == alog.TermVar {
							callerVars[t.Var] = true
						}
					}
				}
				if len(callerVars) == 0 {
					continue
				}
				// The caller variable may flow through intermediate heads;
				// approximate by also tracking same-named variables in other
				// rules (variable names are consistent in our programs).
				for _, r2 := range prog.Rules {
					for _, l := range r2.Body {
						switch l.Kind {
						case alog.LitAtom:
							if l.Atom.Pred == attr.Pred || l.Atom.Pred == alog.FromPred {
								continue
							}
							for _, t := range l.Atom.Args {
								if t.Kind == alog.TermVar && callerVars[t.Var] {
									score += 10 // p-function / join participation
								}
							}
						case alog.LitCompare:
							for _, t := range []alog.Term{l.Cmp.L, l.Cmp.R} {
								if t.Kind == alog.TermVar && callerVars[t.Var] {
									score += 5
								}
							}
						}
					}
					for _, t := range r2.Head.Args {
						if r2.Head.Pred == prog.Query && t.Kind == alog.TermVar && callerVars[t.Var] {
							score++
						}
					}
				}
			}
		}
		scores[attr] = score
	}
	return scores
}

// Simulation selects the question with the smallest expected result size:
// for each candidate question d about feature f of attribute a, it
// simulates the program g(P, (a, f, v)) for every possible answer v and
// computes Σ_v Pr[answers v | asks d] · |exec(g(P,(a,f,v)))|, with
// Pr = (1-α)/|V| (Section 5.1). Simulations run over the session's
// document subset and share its reuse cache, which is what makes them
// affordable (Section 5.2).
type Simulation struct{}

// maxCandidates bounds how many questions are simulated per step, which
// keeps each iteration's simulation affordable.
const maxCandidates = 12

// Next simulates candidate questions and returns the n with the lowest
// expected result size.
func (st Simulation) Next(s *Session, space []Question, n int) ([]Question, error) {
	// Rank candidates sequentially first so that a truncated simulation
	// considers the most promising attributes.
	ordered, err := (Sequential{}).Next(s, space, len(space))
	if err != nil {
		return nil, err
	}
	if len(ordered) > maxCandidates {
		// Round-robin across attributes (in rank order) so every attribute
		// has a candidate simulated each step; a straight prefix would
		// starve lower-ranked attributes of their reducing questions.
		var attrs []alog.AttrRef
		byAttr := map[alog.AttrRef][]Question{}
		for _, q := range ordered {
			if _, ok := byAttr[q.Attr]; !ok {
				attrs = append(attrs, q.Attr)
			}
			byAttr[q.Attr] = append(byAttr[q.Attr], q)
		}
		var picked []Question
		for round := 0; len(picked) < maxCandidates; round++ {
			advanced := false
			for _, a := range attrs {
				if round < len(byAttr[a]) {
					picked = append(picked, byAttr[a][round])
					advanced = true
					if len(picked) == maxCandidates {
						break
					}
				}
			}
			if !advanced {
				break
			}
		}
		ordered = picked
	}
	// Collect the candidates with a non-empty answer domain; each
	// (question, answer) pair is one independent simulated execution, and
	// a candidate's jobs are consecutive from first.
	type candidate struct {
		q      Question
		values []string
		first  int
	}
	var cands []candidate
	type job struct {
		q Question
		v string
	}
	var jobs []job
	for _, q := range ordered {
		values := st.answerDomain(s, q)
		if len(values) == 0 {
			continue
		}
		cands = append(cands, candidate{q: q, values: values, first: len(jobs)})
		for _, v := range values {
			jobs = append(jobs, job{q: q, v: v})
		}
	}

	// Fan the |candidates| x |V| simulations out across the session
	// context's worker pool. The simulations share the session context:
	// its single-flight reuse cache deduplicates the common plan subtrees
	// across goroutines (Section 5.2). Sizes and errors land in per-job
	// slots, and the merge below walks candidates in rank order and values
	// in domain order, so scores — and therefore the picked questions and
	// the transcript — are byte-identical to a serial run. A fired
	// best-effort deadline skips the jobs not yet started: the remaining
	// simulations would only measure partial cuts, and the session loop is
	// about to stop asking questions anyway.
	s.useSubset()
	sizes := make([]int, len(jobs))
	errs := make([]error, len(jobs))
	_ = s.ctx.ForEach(len(jobs), func(k int) error {
		if !s.ctx.Cancelled() {
			sizes[k], errs[k] = s.simulate(jobs[k].q, jobs[k].v)
		}
		return nil
	})

	type scored struct {
		q        Question
		expected float64
	}
	var results []scored
	var simErrs []error
	alpha := s.Config.Alpha
	for _, c := range cands {
		pr := (1 - alpha) / float64(len(c.values))
		expected := alpha * float64(s.lastSize())
		feasible := true
		for vi, v := range c.values {
			if err := errs[c.first+vi]; err != nil {
				feasible = false
				simErrs = append(simErrs, fmt.Errorf("%s = %q: %w", c.q, v, err))
				break
			}
			expected += pr * float64(sizes[c.first+vi])
		}
		if !feasible {
			continue
		}
		results = append(results, scored{q: c.q, expected: expected})
	}
	if len(results) == 0 {
		if len(simErrs) > 0 {
			// Every candidate failed to simulate: surface the engine
			// errors instead of silently degrading to Sequential.
			return nil, fmt.Errorf("assistant: simulation failed for all %d candidate questions: %w",
				len(cands), errors.Join(simErrs...))
		}
		// Nothing simulatable (e.g. no candidate answer values): fall
		// back to sequential.
		return (Sequential{}).Next(s, space, n)
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].expected < results[j].expected })
	if n > len(results) {
		n = len(results)
	}
	out := make([]Question, n)
	for i := 0; i < n; i++ {
		out[i] = results[i].q
	}
	return out, nil
}

// answerDomain returns the value set V simulated for a question: boolean
// features use BoolValues; parametric features use the oracle's candidate
// values when available.
func (st Simulation) answerDomain(s *Session, q Question) []string {
	if q.Kind == feature.KindBoolean {
		return BoolValues
	}
	if cp, ok := s.Oracle.(CandidateProvider); ok {
		return cp.Candidates(q.Attr, q.Feature)
	}
	return nil
}

// ByName returns the strategy with the given experiment name.
func ByName(name string) (Strategy, error) {
	switch name {
	case "seq":
		return Sequential{}, nil
	case "sim":
		return Simulation{}, nil
	default:
		return nil, fmt.Errorf("assistant: unknown strategy %q (want seq or sim)", name)
	}
}
