package alog

import (
	"fmt"
	"maps"
	"strconv"
)

// Unfold rewrites the program so that no rule body references an IE
// predicate described by description rules (Section 4): each such atom is
// replaced by the description rule's body with variables unified. When an
// IE predicate has several description rules, the referencing rule is
// duplicated once per description rule (union semantics). Description
// rules themselves are removed from the result; rules that never reference
// IE predicates are kept as-is.
func Unfold(p *Program, s *Schema) (*Program, error) {
	desc := p.DescriptionRules(s)
	out := &Program{Query: p.Query}
	fresh := 0
	for _, r := range p.Rules {
		if r.IsDescription(s) {
			continue // description rules are consumed by unfolding
		}
		variants, err := unfoldRule(r, desc, &fresh)
		if err != nil {
			return nil, err
		}
		out.Rules = append(out.Rules, variants...)
	}
	if len(out.Rules) == 0 {
		return nil, fmt.Errorf("alog: program has only description rules; nothing to evaluate")
	}
	return out, nil
}

// unfoldRule expands every IE-predicate atom of r, returning all variants.
func unfoldRule(r *Rule, desc map[string][]*Rule, fresh *int) ([]*Rule, error) {
	// Find the first body atom with description rules.
	idx := -1
	for i, l := range r.Body {
		if l.Kind == LitAtom && len(desc[l.Atom.Pred]) > 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return []*Rule{r}, nil
	}
	atom := r.Body[idx].Atom
	var out []*Rule
	for _, d := range desc[atom.Pred] {
		if len(d.Head.Args) != len(atom.Args) {
			return nil, fmt.Errorf("alog: %s used with arity %d but described with arity %d",
				atom.Pred, len(atom.Args), len(d.Head.Args))
		}
		inlined, err := inline(r, idx, atom, d, fresh)
		if err != nil {
			return nil, err
		}
		// The inlined rule may reference further IE predicates.
		variants, err := unfoldRule(inlined, desc, fresh)
		if err != nil {
			return nil, err
		}
		out = append(out, variants...)
	}
	return out, nil
}

// inline replaces body literal idx of r (the atom call) with description
// rule d's body, substituting d's head variables with the call-site terms
// and renaming d's other variables fresh.
func inline(r *Rule, idx int, atom Atom, d *Rule, fresh *int) (*Rule, error) {
	subst := map[string]Term{}
	for i, ht := range d.Head.Args {
		if ht.Kind != TermVar {
			return nil, fmt.Errorf("alog: description rule for %s has a non-variable head argument %s", d.Head.Pred, ht)
		}
		if prev, ok := subst[ht.Var]; ok {
			// Repeated head variable: both call-site terms must agree; we
			// conservatively require syntactic equality.
			if prev != atom.Args[i] {
				return nil, fmt.Errorf("alog: description rule for %s repeats head variable %q with conflicting bindings", d.Head.Pred, ht.Var)
			}
			continue
		}
		subst[ht.Var] = atom.Args[i]
	}
	heads := maps.Clone(subst)
	rename := func(v string) Term {
		if t, ok := subst[v]; ok {
			return t
		}
		*fresh++
		t := Variable(d.Head.Pred + "$" + v + "$" + strconv.Itoa(*fresh))
		subst[v] = t
		return t
	}
	substTerm := func(t Term) Term {
		if t.Kind != TermVar {
			return t
		}
		return rename(t.Var)
	}

	var newBody []Literal
	newBody = append(newBody, r.Body[:idx]...)
	for _, l := range d.Body {
		nl := cloneLiteral(l)
		switch nl.Kind {
		case LitAtom:
			for i, t := range nl.Atom.Args {
				nl.Atom.Args[i] = substTerm(t)
			}
		case LitCompare:
			nl.Cmp.L = substTerm(nl.Cmp.L)
			nl.Cmp.R = substTerm(nl.Cmp.R)
		case LitConstraint:
			nt := rename(nl.Cons.Attr)
			if nt.Kind != TermVar {
				return nil, fmt.Errorf("alog: constraint %s applies to %q which unifies with a constant", nl.Cons, nl.Cons.Attr)
			}
			nl.Cons.Attr = nt.Var
		}
		newBody = append(newBody, nl)
	}
	newBody = append(newBody, r.Body[idx+1:]...)

	nr := r.Clone()
	nr.Body = newBody
	// A body inlined earlier that held the atom grows by what replaced it.
	for i := range nr.Inlined {
		if nr.Inlined[i].End > idx {
			nr.Inlined[i].End += len(d.Body) - 1
		}
	}
	if d.IsDescription(nil) {
		nr.Inlined = append(nr.Inlined, Inline{Pred: d.Head.Pred, Args: heads, End: idx + len(d.Body)})
	}
	return nr, nil
}
