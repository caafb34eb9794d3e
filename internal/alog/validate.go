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
type PredClass uint8

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
// Selections (IsSelection) go as early as their variables allow. It
// returns the order as body indexes, or an error naming the first literal
// that can never be placed.
func OrderBody(p *Program, s *Schema, r *Rule, seed map[string]bool) ([]int, error) {
	bound := map[string]bool{}
	for v := range seed {
		bound[v] = true
	}
	// Each literal is classified once, and the body is ordered in place:
	// placed marks what out already holds.
	type state struct {
		class  PredClass
		placed bool
	}
	lits := make([]state, len(r.Body))
	for i, lit := range r.Body {
		lits[i].class = litClass(p, s, lit)
	}
	out := make([]int, 0, len(r.Body))
	for len(out) < len(r.Body) {
		// Prefer selections: they only ever shrink intermediate results, so
		// placing them as soon as their variables are bound keeps joins small
		// (selection pushdown).
		pick := -1
		for i, lit := range r.Body {
			if l := lits[i]; !l.placed && isSelection(lit, l.class) && evaluable(lit, l.class, bound) {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i, lit := range r.Body {
				if l := lits[i]; !l.placed && evaluable(lit, l.class, bound) {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("alog: rule %q: cannot evaluate %q (unbound variables); rule is unsafe or mis-ordered",
				r.Head.Pred, r.Body[slices.IndexFunc(lits, func(l state) bool { return !l.placed })])
		}
		lits[pick].placed = true
		bindLiteral(r.Body[pick], lits[pick].class, bound)
		out = append(out, pick)
	}
	return out, nil
}

// IsSelection reports whether the literal filters without binding new
// variables: a comparison, a constraint, a boolean p-function, or
// feature(var, const) constraint sugar. OrderBody places a selection as
// soon as its variables are bound.
func IsSelection(p *Program, s *Schema, lit Literal) bool {
	return isSelection(lit, litClass(p, s, lit))
}

// Stated returns the domain constraint a literal states: written out, or as
// feature(var, const) sugar on a predicate that is nothing else.
func Stated(p *Program, s *Schema, lit Literal) (Constraint, bool) {
	switch lit.Kind {
	case LitConstraint:
		return lit.Cons, true
	case LitAtom:
		if sc, ok := SugarConstraint(lit.Atom); ok && Classify(p, s, lit.Atom.Pred) == ClassUnknown {
			return sc, true
		}
	}
	return Constraint{}, false
}

// litClass is the class of an atom's predicate; comparisons and
// constraints have none (ClassUnknown).
func litClass(p *Program, s *Schema, lit Literal) PredClass {
	if lit.Kind != LitAtom {
		return ClassUnknown
	}
	return Classify(p, s, lit.Atom.Pred)
}

// isSelection is IsSelection given the literal's class.
func isSelection(lit Literal, c PredClass) bool {
	switch {
	case lit.Kind != LitAtom, c == ClassFunction:
		return true
	case c == ClassUnknown:
		_, ok := SugarConstraint(lit.Atom)
		return ok
	}
	return false
}

// evaluable reports whether the literal, of class c, can run given the
// bound variables.
func evaluable(lit Literal, c PredClass, bound map[string]bool) bool {
	switch lit.Kind {
	case LitCompare:
		return termBound(lit.Cmp.L, bound) && termBound(lit.Cmp.R, bound)
	case LitConstraint:
		return bound[lit.Cons.Attr]
	}
	a := lit.Atom
	switch c {
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
	}
	if cons, ok := SugarConstraint(a); ok {
		return bound[cons.Attr]
	}
	return false
}

// bindLiteral adds the variables the literal, of class c, binds to the
// bound set.
func bindLiteral(lit Literal, c PredClass, bound map[string]bool) {
	if lit.Kind != LitAtom {
		return
	}
	a := lit.Atom
	switch c {
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
	if _, err := OrderBody(p, s, r, seed); err != nil {
		return err
	}
	// Safety: every head variable must be bound after evaluating the body.
	bound := map[string]bool{}
	for v := range seed {
		bound[v] = true
	}
	for _, l := range r.Body {
		bindLiteral(l, litClass(p, s, l), bound)
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
