package alog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokPeriod
	tokImplies // :-
	tokQMark   // ?
	tokLT
	tokLE
	tokGT
	tokGE
	tokEQ
	tokNE
	tokPlus
)

var tokNames = map[tokKind]string{
	tokEOF: "end of input", tokIdent: "identifier", tokNumber: "number",
	tokString: "string", tokLParen: "'('", tokRParen: "')'", tokComma: "','",
	tokPeriod: "'.'", tokImplies: "':-'", tokQMark: "'?'", tokLT: "'<'",
	tokLE: "'<='", tokGT: "'>'", tokGE: "'>='", tokEQ: "'='", tokNE: "'!='",
	tokPlus: "'+'",
}

// token is one lexical token with its source position.
type token struct {
	kind tokKind
	text string
	num  float64
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokIdent || t.kind == tokNumber || t.kind == tokString {
		return fmt.Sprintf("%s %q", tokNames[t.kind], t.text)
	}
	return tokNames[t.kind]
}

// lexer tokenises Alog source. Comments run from "//" or "#" to newline.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

// Error is a parse or lex error with a source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("alog: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#' || (c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/'):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '-' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	t := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		t.kind = tokEOF
		return t, nil
	}
	c := l.peek()
	switch {
	case c == '(':
		l.advance()
		t.kind = tokLParen
	case c == ')':
		l.advance()
		t.kind = tokRParen
	case c == ',':
		l.advance()
		t.kind = tokComma
	case c == '.':
		l.advance()
		t.kind = tokPeriod
	case c == '?':
		l.advance()
		t.kind = tokQMark
	case c == '+':
		l.advance()
		t.kind = tokPlus
	case c == ':':
		l.advance()
		if l.peek() != '-' {
			return t, l.errf("expected '-' after ':'")
		}
		l.advance()
		t.kind = tokImplies
	case c == '<':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			t.kind = tokLE
		} else {
			t.kind = tokLT
		}
	case c == '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			t.kind = tokGE
		} else {
			t.kind = tokGT
		}
	case c == '=':
		l.advance()
		t.kind = tokEQ
	case c == '!':
		l.advance()
		if l.peek() != '=' {
			return t, l.errf("expected '=' after '!'")
		}
		l.advance()
		t.kind = tokNE
	case c == '"':
		return l.lexString(t)
	case c == '-' || unicode.IsDigit(rune(c)):
		return l.lexNumber(t)
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.advance()
		}
		t.kind = tokIdent
		t.text = l.src[start:l.pos]
	default:
		return t, l.errf("unexpected character %q", string(c))
	}
	return t, nil
}

// lexString reads a string literal. Its escapes are Go's, the ones
// strconv.Quote writes, so that a rendered program parses back.
func (l *lexer) lexString(t token) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return t, l.errf("unterminated string")
		}
		switch l.src[l.pos] {
		case '"':
			l.advance()
			t.kind = tokString
			t.text = b.String()
			return t, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return t, l.errf("unterminated escape in string")
			}
			v, multibyte, tail, err := strconv.UnquoteChar(l.src[l.pos:], '"')
			if err != nil {
				return t, l.errf("unknown escape \\%s", string(l.src[l.pos+1]))
			}
			if multibyte {
				b.WriteRune(v)
			} else {
				b.WriteByte(byte(v))
			}
			for n := len(l.src) - len(tail); l.pos < n; {
				l.advance()
			}
		default:
			b.WriteByte(l.advance())
		}
	}
}

func (l *lexer) lexNumber(t token) (token, error) {
	neg := l.peek() == '-'
	if neg {
		// Spaces may follow the sign: `y - 5` is y plus the number -5, the
		// way Compare.String writes a negative offset.
		for l.advance(); l.peek() == ' ' || l.peek() == '\t'; {
			l.advance()
		}
		if !unicode.IsDigit(rune(l.peek())) {
			return t, l.errf("expected digit after '-'")
		}
	}
	start := l.pos
	dots := 0
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' {
			// A '.' followed by a digit is a decimal point; otherwise it is
			// the rule terminator.
			if l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) && dots == 0 {
				dots++
				l.advance()
				continue
			}
			break
		}
		if !unicode.IsDigit(rune(c)) {
			break
		}
		l.advance()
	}
	// An exponent, as strconv.FormatFloat writes one: e or E, an optional
	// sign, digits.
	if c := l.peek(); c == 'e' || c == 'E' {
		d := l.pos + 1
		if d < len(l.src) && (l.src[d] == '+' || l.src[d] == '-') {
			d++
		}
		if d < len(l.src) && unicode.IsDigit(rune(l.src[d])) {
			for l.pos < d || l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
				l.advance()
			}
		}
	}
	txt := l.src[start:l.pos]
	if neg {
		txt = "-" + txt
	}
	n, err := strconv.ParseFloat(txt, 64)
	if err != nil {
		return t, l.errf("bad number %q", txt)
	}
	t.kind = tokNumber
	t.text = txt
	t.num = n
	return t, nil
}
