// Package alog implements the Alog language of Section 2: an Xlog
// (Datalog-variant) extension for writing approximate IE programs.
//
// A program is a set of rules `head :- body.` where the body mixes
// ordinary predicates, p-predicates, comparisons (p > 500000), and domain
// constraints (numeric(p) = yes). Two annotations give rules
// possible-worlds semantics:
//
//	houses(x, <p>, <a>, <h>) :- ...   attribute annotations (Definition 2)
//	schools(s)? :- ...                existence annotation (Definition 1)
//
// Description rules "partially implement" an IE predicate: their bodies
// use the built-in from(x, s) predicate and domain constraints instead of
// procedural code. The parser is handwritten (lexer + recursive descent).
package alog

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// TermKind distinguishes the kinds of rule arguments.
type TermKind int

const (
	// TermVar is a variable, e.g. x or title1.
	TermVar TermKind = iota
	// TermStr is a quoted string constant.
	TermStr
	// TermNum is a numeric constant.
	TermNum
	// TermNull is the NULL constant (missing value).
	TermNull
)

// Term is one argument of an atom or one side of a comparison.
type Term struct {
	Kind TermKind
	Var  string
	Str  string
	Num  float64
}

// Variable returns a variable term.
func Variable(name string) Term { return Term{Kind: TermVar, Var: name} }

// StringConst returns a string-constant term.
func StringConst(s string) Term { return Term{Kind: TermStr, Str: s} }

// NumberConst returns a numeric-constant term.
func NumberConst(n float64) Term { return Term{Kind: TermNum, Num: n} }

// String renders the term in Alog source syntax.
func (t Term) String() string { return string(t.Append(nil)) }

// Append appends the term's String rendering to b.
func (t Term) Append(b []byte) []byte {
	switch t.Kind {
	case TermVar:
		return append(b, t.Var...)
	case TermStr:
		return strconv.AppendQuote(b, t.Str)
	case TermNum:
		return strconv.AppendFloat(b, t.Num, 'g', -1, 64)
	case TermNull:
		return append(b, "NULL"...)
	}
	return append(b, '?')
}

// Atom is a predicate applied to terms: pred(arg1, ..., argN).
type Atom struct {
	Pred string
	Args []Term
}

// String renders the atom in Alog source syntax.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// SugarConstraint interprets a two-argument atom feature(var, const) as
// the domain constraint feature(var) = const (the sugar used by the
// paper's DBLife programs, e.g. prec_label_max_dist(x, 700)). Callers must
// first check that the predicate does not resolve to a real relation.
func SugarConstraint(a Atom) (Constraint, bool) {
	if len(a.Args) != 2 || a.Args[0].Kind != TermVar {
		return Constraint{}, false
	}
	switch a.Args[1].Kind {
	case TermStr, TermNum:
		return Constraint{
			Feature: CanonFeature(a.Pred),
			Attr:    a.Args[0].Var,
			Value:   termValueString(a.Args[1]),
		}, true
	default:
		return Constraint{}, false
	}
}

// CompareOp is a comparison operator.
type CompareOp string

// The comparison operators of the language.
const (
	OpLT CompareOp = "<"
	OpLE CompareOp = "<="
	OpGT CompareOp = ">"
	OpGE CompareOp = ">="
	OpEQ CompareOp = "="
	OpNE CompareOp = "!="
)

// Compare is a comparison literal, e.g. p > 500000, title1 = title2, or
// lastPage < firstPage + 5 (ROffset carries the additive constant on the
// right-hand side, the only arithmetic the language supports).
type Compare struct {
	Op      CompareOp
	L, R    Term
	ROffset float64
}

// String renders the comparison in source syntax.
func (c Compare) String() string { return string(c.Append(nil)) }

// Append appends the comparison's String rendering to b.
func (c Compare) Append(b []byte) []byte {
	b = append(append(append(c.L.Append(b), ' '), c.Op...), ' ')
	b = c.R.Append(b)
	if off := c.ROffset; off < 0 {
		b = strconv.AppendFloat(append(b, " - "...), -off, 'g', -1, 64)
	} else if off != 0 {
		b = strconv.AppendFloat(append(b, " + "...), off, 'g', -1, 64)
	}
	return b
}

// Constraint is a domain-constraint literal f(attr) = value
// (Section 2.2.2), e.g. numeric(p) = yes or preceded-by(h, "school:").
type Constraint struct {
	Feature string
	Attr    string
	Value   string
}

// String renders the constraint in source syntax.
func (c Constraint) String() string {
	return fmt.Sprintf("%s(%s) = %q", c.Feature, c.Attr, c.Value)
}

// LitKind distinguishes the three body-literal kinds.
type LitKind int

const (
	// LitAtom is a predicate atom (extensional, intensional, p-predicate,
	// IE predicate, or the built-in from).
	LitAtom LitKind = iota
	// LitCompare is a comparison.
	LitCompare
	// LitConstraint is a domain constraint.
	LitConstraint
)

// Literal is one conjunct of a rule body.
type Literal struct {
	Kind LitKind
	Atom Atom
	Cmp  Compare
	Cons Constraint
}

// String renders the literal in source syntax.
func (l Literal) String() string {
	switch l.Kind {
	case LitAtom:
		return l.Atom.String()
	case LitCompare:
		return l.Cmp.String()
	default:
		return l.Cons.String()
	}
}

// Rule is one Alog rule with its annotations: Exists is the head '?'
// (Definition 1) and AnnAttrs lists head variables written <v>
// (Definition 2).
type Rule struct {
	Head     Atom
	Exists   bool
	AnnAttrs []string
	Body     []Literal
	// Inlined is set on the rules Unfold produces: the description rules
	// AddConstraint extends that were inlined into Body, in the order they
	// were inlined (so a rule comes before those inlined from its own body).
	Inlined []Inline
}

// Inline is one description rule inlined into a rule body: Pred is its head
// predicate, Args maps each of its head variables to the call-site term it
// became, and End is the body index just past the inlined body — where a
// constraint AddConstraint appends to the description rule lands.
type Inline struct {
	Pred string
	Args map[string]Term
	End  int
}

// Annotated reports whether head variable v carries an attribute annotation.
func (r *Rule) Annotated(v string) bool {
	for _, a := range r.AnnAttrs {
		if a == v {
			return true
		}
	}
	return false
}

// String renders the rule in Alog source syntax (with trailing period).
func (r *Rule) String() string {
	headArgs := make([]string, len(r.Head.Args))
	for i, t := range r.Head.Args {
		s := t.String()
		if t.Kind == TermVar && r.Annotated(t.Var) {
			s = "<" + s + ">"
		}
		headArgs[i] = s
	}
	head := r.Head.Pred + "(" + strings.Join(headArgs, ", ") + ")"
	if r.Exists {
		head += "?"
	}
	body := make([]string, len(r.Body))
	for i, l := range r.Body {
		body[i] = l.String()
	}
	return head + " :- " + strings.Join(body, ", ") + "."
}

// Clone returns a deep copy of the rule.
func (r *Rule) Clone() *Rule {
	cp := &Rule{Head: cloneAtom(r.Head), Exists: r.Exists, Inlined: slices.Clone(r.Inlined)}
	cp.AnnAttrs = append([]string(nil), r.AnnAttrs...)
	cp.Body = make([]Literal, len(r.Body))
	for i, l := range r.Body {
		cp.Body[i] = cloneLiteral(l)
	}
	return cp
}

func cloneAtom(a Atom) Atom {
	return Atom{Pred: a.Pred, Args: append([]Term(nil), a.Args...)}
}

func cloneLiteral(l Literal) Literal {
	if l.Kind == LitAtom {
		l.Atom = cloneAtom(l.Atom)
	}
	return l
}

// UsesFrom reports whether the rule's body contains the built-in from
// predicate.
func (r *Rule) UsesFrom() bool {
	for _, l := range r.Body {
		if l.Kind == LitAtom && l.Atom.Pred == FromPred {
			return true
		}
	}
	return false
}

// IsDescription reports whether the rule is a predicate description rule
// (Section 2.2.2): it uses from and *requires input* — some from (or
// procedure) input variable is not produced by any other body literal, so
// the rule only defines a relation once its head inputs are bound. Rules
// produced by unfolding use from too, but their inputs are bound by
// extensional atoms (e.g. housePages(x)), so they are not description
// rules. The schema may be nil.
func (r *Rule) IsDescription(s *Schema) bool {
	return r.UsesFrom() && requiresInput(r, s)
}

// requiresInput reports whether some from/procedure input variable of the
// body is not produced within the body itself.
func requiresInput(r *Rule, s *Schema) bool {
	produced := map[string]bool{}
	for _, l := range r.Body {
		if l.Kind != LitAtom {
			continue
		}
		a := l.Atom
		switch {
		case a.Pred == FromPred:
			if len(a.Args) == 2 && a.Args[1].Kind == TermVar {
				produced[a.Args[1].Var] = true
			}
		case s != nil && s.Functions[a.Pred]:
			// boolean p-functions produce nothing
		case s != nil && s.Procedures[a.Pred]:
			for _, t := range a.Args[1:] {
				if t.Kind == TermVar {
					produced[t.Var] = true
				}
			}
		default:
			// extensional or intensional atoms bind all their variables
			for _, t := range a.Args {
				if t.Kind == TermVar {
					produced[t.Var] = true
				}
			}
		}
	}
	for _, l := range r.Body {
		if l.Kind != LitAtom {
			continue
		}
		a := l.Atom
		needsInput := a.Pred == FromPred || (s != nil && s.Procedures[a.Pred])
		if needsInput && len(a.Args) > 0 && a.Args[0].Kind == TermVar && !produced[a.Args[0].Var] {
			return true
		}
	}
	return false
}

// FromPred is the built-in predicate from(x, s) that conceptually extracts
// every sub-span s of x (Section 2.2.2).
const FromPred = "from"

// Program is a parsed Alog program. Query names the head predicate whose
// relation is the program result (defaults to "Q" or, failing that, the
// head of the last rule).
type Program struct {
	Rules []*Rule
	Query string
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	cp := &Program{Query: p.Query, Rules: make([]*Rule, len(p.Rules))}
	for i, r := range p.Rules {
		cp.Rules[i] = r.Clone()
	}
	return cp
}

// String renders the whole program, one rule per line.
func (p *Program) String() string {
	lines := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		lines[i] = r.String()
	}
	return strings.Join(lines, "\n")
}

// RulesFor returns the rules whose head predicate is pred, in order.
func (p *Program) RulesFor(pred string) []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if r.Head.Pred == pred {
			out = append(out, r)
		}
	}
	return out
}

// DescriptionRules returns the rules that describe IE predicates, keyed by
// head predicate name. The schema may be nil.
func (p *Program) DescriptionRules(s *Schema) map[string][]*Rule {
	out := map[string][]*Rule{}
	for _, r := range p.Rules {
		if r.IsDescription(s) {
			out[r.Head.Pred] = append(out[r.Head.Pred], r)
		}
	}
	return out
}

// AttrRef identifies an extraction attribute: a head variable of a
// description rule (e.g. pred "extractHouses", var "p"). This is what the
// next-effort assistant asks questions about.
type AttrRef struct {
	Pred string
	Var  string
}

// String renders the reference as pred.var.
func (a AttrRef) String() string { return a.Pred + "." + a.Var }

// Attrs returns every extraction attribute of the program: the non-input
// head variables of each description rule (those that appear as from
// outputs or in constraints).
func (p *Program) Attrs() []AttrRef {
	var out []AttrRef
	seen := map[AttrRef]bool{}
	for _, r := range p.Rules {
		if !r.IsDescription(nil) {
			continue
		}
		// Outputs of from atoms in the body.
		outputs := map[string]bool{}
		for _, l := range r.Body {
			if l.Kind == LitAtom && l.Atom.Pred == FromPred && len(l.Atom.Args) == 2 {
				if t := l.Atom.Args[1]; t.Kind == TermVar {
					outputs[t.Var] = true
				}
			}
		}
		for _, t := range r.Head.Args {
			if t.Kind == TermVar && outputs[t.Var] {
				ref := AttrRef{Pred: r.Head.Pred, Var: t.Var}
				if !seen[ref] {
					seen[ref] = true
					out = append(out, ref)
				}
			}
		}
	}
	return out
}

// AddConstraint appends the domain constraint f(attr.Var) = value to every
// description rule of attr.Pred that outputs attr.Var. It returns an error
// if no such rule exists. This is the refinement step the next-effort
// assistant performs when the developer answers a question (Section 5.1).
func (p *Program) AddConstraint(attr AttrRef, featureName, value string) error {
	added := false
	for _, r := range p.Rules {
		if r.Head.Pred != attr.Pred || !r.IsDescription(nil) {
			continue
		}
		hasVar := false
		for _, t := range r.Head.Args {
			if t.Kind == TermVar && t.Var == attr.Var {
				hasVar = true
				break
			}
		}
		if !hasVar {
			continue
		}
		r.Body = append(r.Body, Literal{
			Kind: LitConstraint,
			Cons: Constraint{Feature: featureName, Attr: attr.Var, Value: value},
		})
		added = true
	}
	if !added {
		return fmt.Errorf("alog: no description rule for attribute %s", attr)
	}
	return nil
}

// HasConstraint reports whether some description rule of attr.Pred already
// constrains attr.Var with the given feature.
func (p *Program) HasConstraint(attr AttrRef, featureName string) bool {
	for _, r := range p.Rules {
		if r.Head.Pred != attr.Pred {
			continue
		}
		for _, l := range r.Body {
			if l.Kind == LitConstraint && l.Cons.Attr == attr.Var && l.Cons.Feature == featureName {
				return true
			}
		}
	}
	return false
}
