package alog

import (
	"fmt"
	"slices"
)

// Schema describes the non-rule bindings a program runs against: the
// extensional tables provided to it, the boolean p-functions, and the
// procedural p-predicates (cleanup procedures) registered in Go.
type Schema struct {
	// Extensional maps extensional predicate names to their column names.
	Extensional map[string][]string
	// Functions names boolean p-functions such as similar / approxMatch.
	Functions map[string]bool
	// Procedures names procedural p-predicates (Section 2.2.4 cleanup
	// procedures). Their first argument is the input.
	Procedures map[string]bool
}

// PredClass classifies a predicate occurrence.
type PredClass int

// The predicate classes, in resolution priority order.
const (
	ClassUnknown PredClass = iota
	ClassFrom
	ClassExtensional
	ClassFunction
	ClassProcedure
	ClassIE          // head of a description rule
	ClassIntensional // head of a non-description rule
)

// Classify resolves the class of a predicate name within a program+schema.
func Classify(p *Program, s *Schema, pred string) PredClass {
	if pred == FromPred {
		return ClassFrom
	}
	if s != nil {
		if _, ok := s.Extensional[pred]; ok {
			return ClassExtensional
		}
		if s.Functions[pred] {
			return ClassFunction
		}
		if s.Procedures[pred] {
			return ClassProcedure
		}
	}
	isDesc, isHead := false, false
	for _, r := range p.Rules {
		if r.Head.Pred == pred {
			isHead = true
			if r.IsDescription(s) {
				isDesc = true
			}
		}
	}
	switch {
	case isDesc:
		return ClassIE
	case isHead:
		return ClassIntensional
	default:
		return ClassUnknown
	}
}

// OrderBody orders a rule body so each literal is evaluable left-to-right
// given the seed bound variables (standard sideways information passing):
// extensional/intensional atoms bind their variables; from(x, s) needs x
// and binds s; functions and comparisons need all their variables; IE
// predicates and procedures need their first argument and bind the rest.
// It returns an error naming the first literal that can never be placed.
func OrderBody(p *Program, s *Schema, r *Rule, seed map[string]bool) ([]Literal, error) {
	bound := map[string]bool{}
	for v := range seed {
		bound[v] = true
	}
	// The body is ordered in place: placed marks what out already holds, so
	// nothing is copied or shifted, and out is allocated once. A compile
	// orders every rule twice, on bodies that grow by one literal per answer.
	placed := make([]bool, len(r.Body))
	out := make([]Literal, 0, len(r.Body))
	for len(out) < len(r.Body) {
		// Prefer selections (comparisons, constraints, p-functions): they
		// only ever shrink intermediate results, so placing them as soon as
		// their variables are bound keeps joins small (selection pushdown).
		pick := -1
		for i, lit := range r.Body {
			if !placed[i] && isSelection(p, s, lit) && evaluable(p, s, lit, bound) {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i, lit := range r.Body {
				if !placed[i] && evaluable(p, s, lit, bound) {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("alog: rule %q: cannot evaluate %q (unbound variables); rule is unsafe or mis-ordered",
				r.Head.Pred, r.Body[slices.Index(placed, false)])
		}
		placed[pick] = true
		bindLiteral(p, s, r.Body[pick], bound)
		out = append(out, r.Body[pick])
	}
	return out, nil
}

// isSelection reports whether the literal filters without binding new
// variables: comparisons, constraints, and boolean p-functions.
func isSelection(p *Program, s *Schema, lit Literal) bool {
	switch lit.Kind {
	case LitCompare, LitConstraint:
		return true
	default:
		if Classify(p, s, lit.Atom.Pred) == ClassFunction {
			return true
		}
		// Unknown two-arg atoms that look like constraint sugar are
		// selections too.
		if Classify(p, s, lit.Atom.Pred) == ClassUnknown {
			_, ok := SugarConstraint(lit.Atom)
			return ok
		}
		return false
	}
}

// evaluable reports whether the literal can run given the bound variables.
func evaluable(p *Program, s *Schema, lit Literal, bound map[string]bool) bool {
	switch lit.Kind {
	case LitCompare:
		return termBound(lit.Cmp.L, bound) && termBound(lit.Cmp.R, bound)
	case LitConstraint:
		return bound[lit.Cons.Attr]
	default:
		a := lit.Atom
		switch Classify(p, s, a.Pred) {
		case ClassFrom:
			return len(a.Args) == 2 && termBound(a.Args[0], bound)
		case ClassExtensional, ClassIntensional:
			return true
		case ClassFunction:
			for _, t := range a.Args {
				if !termBound(t, bound) {
					return false
				}
			}
			return true
		case ClassProcedure, ClassIE:
			return len(a.Args) >= 1 && termBound(a.Args[0], bound)
		default:
			if cons, ok := SugarConstraint(a); ok {
				return bound[cons.Attr]
			}
			return false
		}
	}
}

// bindLiteral adds the variables the literal binds to the bound set.
func bindLiteral(p *Program, s *Schema, lit Literal, bound map[string]bool) {
	if lit.Kind != LitAtom {
		return
	}
	a := lit.Atom
	switch Classify(p, s, a.Pred) {
	case ClassFrom:
		if len(a.Args) == 2 && a.Args[1].Kind == TermVar {
			bound[a.Args[1].Var] = true
		}
	case ClassExtensional, ClassIntensional, ClassProcedure, ClassIE:
		for _, t := range a.Args {
			if t.Kind == TermVar {
				bound[t.Var] = true
			}
		}
	}
}

func termBound(t Term, bound map[string]bool) bool {
	return t.Kind != TermVar || bound[t.Var]
}

// ruleSeed returns the input variables of a rule: for description rules,
// the head variables used as the input side of body literals (the first
// argument of from, IE, or procedure atoms). Non-description rules have no
// inputs.
func ruleSeed(p *Program, s *Schema, r *Rule) map[string]bool {
	seed := map[string]bool{}
	if !r.IsDescription(s) {
		return seed
	}
	headVars := map[string]bool{}
	for _, t := range r.Head.Args {
		if t.Kind == TermVar {
			headVars[t.Var] = true
		}
	}
	for _, l := range r.Body {
		if l.Kind != LitAtom || len(l.Atom.Args) == 0 {
			continue
		}
		if t := l.Atom.Args[0]; t.Kind == TermVar && headVars[t.Var] {
			switch Classify(p, s, l.Atom.Pred) {
			case ClassFrom, ClassIE, ClassProcedure:
				seed[t.Var] = true
			}
		}
	}
	return seed
}

// Validate checks the whole program: every body predicate resolves to a
// known class, every rule body can be ordered safely, every head variable
// is bound by the body (rule safety, Section 2.2.2), and annotations refer
// to head variables. It returns the first error found.
func Validate(p *Program, s *Schema) error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("alog: empty program")
	}
	if len(p.RulesFor(p.Query)) == 0 {
		return fmt.Errorf("alog: query predicate %q has no rules", p.Query)
	}
	for _, r := range p.Rules {
		if err := validateRule(p, s, r); err != nil {
			return err
		}
	}
	return nil
}

func validateRule(p *Program, s *Schema, r *Rule) error {
	for _, l := range r.Body {
		if l.Kind == LitAtom && Classify(p, s, l.Atom.Pred) == ClassUnknown {
			if _, ok := SugarConstraint(l.Atom); ok {
				continue // feature(var, const) constraint sugar
			}
			return fmt.Errorf("alog: rule %q: unknown predicate %q (not extensional, intensional, a p-predicate, or a p-function)",
				r.Head.Pred, l.Atom.Pred)
		}
	}
	seed := ruleSeed(p, s, r)
	ordered, err := OrderBody(p, s, r, seed)
	if err != nil {
		return err
	}
	// Safety: every head variable must be bound after evaluating the body.
	bound := map[string]bool{}
	for v := range seed {
		bound[v] = true
	}
	for _, l := range ordered {
		bindLiteral(p, s, l, bound)
	}
	for _, t := range r.Head.Args {
		if t.Kind == TermVar && !bound[t.Var] {
			return fmt.Errorf("alog: rule %q is unsafe: head variable %q is not bound by the body",
				r.Head.Pred, t.Var)
		}
	}
	// Annotations must name head variables.
	headVars := map[string]bool{}
	for _, t := range r.Head.Args {
		if t.Kind == TermVar {
			headVars[t.Var] = true
		}
	}
	for _, a := range r.AnnAttrs {
		if !headVars[a] {
			return fmt.Errorf("alog: rule %q: attribute annotation <%s> does not name a head variable", r.Head.Pred, a)
		}
	}
	return nil
}
