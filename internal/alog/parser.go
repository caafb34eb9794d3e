package alog

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses Alog source into a Program. The query predicate is "Q" if a
// rule with that head exists, otherwise the head of the last rule. Rules
// end with '.'.
func Parse(src string) (*Program, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.tok.kind != tokEOF {
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("alog: empty program")
	}
	// The query is the predicate named Q when present, otherwise the head
	// of the last non-description rule (description rules only *describe*
	// IE predicates and cannot be queried directly).
	prog.Query = prog.Rules[len(prog.Rules)-1].Head.Pred
	for i := len(prog.Rules) - 1; i >= 0; i-- {
		if !prog.Rules[i].IsDescription(nil) {
			prog.Query = prog.Rules[i].Head.Pred
			break
		}
	}
	for _, r := range prog.Rules {
		if r.Head.Pred == "Q" {
			prog.Query = "Q"
			break
		}
	}
	return prog, nil
}

// MustParse parses src and panics on error; for tests and embedded
// programs.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	lx  *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errf("expected %s, found %s", tokNames[k], p.tok)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// rule parses: head [?] :- body .
func (p *parser) rule() (*Rule, error) {
	r := &Rule{}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	r.Head.Pred = name.text
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	for {
		// Head argument: var, <var>, or constant.
		switch p.tok.kind {
		case tokLT:
			if err := p.advance(); err != nil {
				return nil, err
			}
			v, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokGT); err != nil {
				return nil, err
			}
			r.Head.Args = append(r.Head.Args, Variable(v.text))
			r.AnnAttrs = append(r.AnnAttrs, v.text)
		default:
			t, err := p.term()
			if err != nil {
				return nil, err
			}
			r.Head.Args = append(r.Head.Args, t)
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if p.tok.kind == tokQMark {
		r.Exists = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokImplies); err != nil {
		return nil, err
	}
	for {
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		r.Body = append(r.Body, lit)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokPeriod); err != nil {
		return nil, err
	}
	return r, nil
}

// term parses a variable or constant.
func (p *parser) term() (Term, error) {
	switch p.tok.kind {
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		if name == "NULL" {
			return Term{Kind: TermNull}, nil
		}
		return Variable(name), nil
	case tokNumber:
		n := p.tok.num
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return NumberConst(n), nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return StringConst(s), nil
	default:
		return Term{}, p.errf("expected a term, found %s", p.tok)
	}
}

// literal parses one body conjunct: an atom, a constraint, or a comparison.
func (p *parser) literal() (Literal, error) {
	// A literal starting with ident+'(' is an atom (possibly a constraint);
	// anything else starts a comparison.
	if p.tok.kind == tokIdent {
		name := p.tok
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
		if p.tok.kind == tokLParen {
			return p.atomOrConstraint(name)
		}
		// Variable on the left of a comparison.
		var lhs Term
		if name.text == "NULL" {
			lhs = Term{Kind: TermNull}
		} else {
			lhs = Variable(name.text)
		}
		return p.comparison(lhs)
	}
	lhs, err := p.term()
	if err != nil {
		return Literal{}, err
	}
	return p.comparison(lhs)
}

// comparison parses: lhs op rhs.
func (p *parser) comparison(lhs Term) (Literal, error) {
	var op CompareOp
	switch p.tok.kind {
	case tokLT:
		op = OpLT
	case tokLE:
		op = OpLE
	case tokGT:
		op = OpGT
	case tokGE:
		op = OpGE
	case tokEQ:
		op = OpEQ
	case tokNE:
		op = OpNE
	default:
		return Literal{}, p.errf("expected a comparison operator, found %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return Literal{}, err
	}
	rhs, err := p.term()
	if err != nil {
		return Literal{}, err
	}
	cmp := Compare{Op: op, L: lhs, R: rhs}
	// Optional additive offset on the right-hand side: `x < y + 5`.
	// Subtraction arrives as a negative number token (`y - 5` lexes as
	// ident then number -5), so a bare number after the term also counts.
	switch p.tok.kind {
	case tokPlus:
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
		n, err := p.expect(tokNumber)
		if err != nil {
			return Literal{}, err
		}
		cmp.ROffset = n.num
	case tokNumber:
		cmp.ROffset = p.tok.num
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
	}
	return Literal{Kind: LitCompare, Cmp: cmp}, nil
}

// atomOrConstraint parses pred(args...) and, if followed by '=' or written
// in the two-argument sugar pred(var, const), turns it into a constraint.
func (p *parser) atomOrConstraint(name token) (Literal, error) {
	if err := p.advance(); err != nil { // consume '('
		return Literal{}, err
	}
	var args []Term
	if p.tok.kind != tokRParen {
		for {
			t, err := p.term()
			if err != nil {
				return Literal{}, err
			}
			args = append(args, t)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return Literal{}, err
				}
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Literal{}, err
	}
	atom := Atom{Pred: name.text, Args: args}

	if p.tok.kind == tokEQ {
		// Constraint form: feature(attr) = value.
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
		if len(args) != 1 || args[0].Kind != TermVar {
			return Literal{}, &Error{Line: name.line, Col: name.col,
				Msg: fmt.Sprintf("constraint %s(...) = v needs exactly one variable argument", name.text)}
		}
		val, err := p.constraintValue()
		if err != nil {
			return Literal{}, err
		}
		return Literal{Kind: LitConstraint, Cons: Constraint{
			Feature: CanonFeature(name.text), Attr: args[0].Var, Value: val,
		}}, nil
	}

	// A two-argument atom feature(var, const) may be constraint sugar; that
	// is resolved during validation/compilation (SugarConstraint), because
	// only name resolution can tell a feature from a predicate with a
	// constant argument.
	return Literal{Kind: LitAtom, Atom: atom}, nil
}

// constraintValue parses the value of a constraint: bare ident, string, or
// number, returned as its string form.
func (p *parser) constraintValue() (string, error) {
	switch p.tok.kind {
	case tokIdent:
		v := p.tok.text
		if err := p.advance(); err != nil {
			return "", err
		}
		return v, nil
	case tokString:
		v := p.tok.text
		if err := p.advance(); err != nil {
			return "", err
		}
		return v, nil
	case tokNumber:
		t := p.tok
		if err := p.advance(); err != nil {
			return "", err
		}
		return t.text, nil
	default:
		return "", p.errf("expected a constraint value, found %s", p.tok)
	}
}

// termValueString renders a constant term as a constraint value string.
func termValueString(t Term) string {
	if t.Kind == TermStr {
		return t.Str
	}
	return strconv.FormatFloat(t.Num, 'g', -1, 64)
}

// CanonFeature normalises a feature name to the registry's canonical
// hyphenated form (prec_label_contains -> prec-label-contains). A leading
// underscore stays: no identifier starts with a hyphen.
func CanonFeature(name string) string {
	if lead, rest, ok := strings.Cut(name, "_"); ok && lead == "" {
		return "_" + strings.ReplaceAll(rest, "_", "-")
	}
	return strings.ReplaceAll(name, "_", "-")
}
