package text

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parseNumericRef is ParseNumeric as it stood before the allocation-free
// screen was added: trim, strip '$' and ',', strconv.ParseFloat. The screen
// may only reject what this rejects.
func parseNumericRef(raw string) (float64, bool) {
	t := strings.TrimSpace(raw)
	t = strings.TrimPrefix(t, "$")
	if t == "" {
		return 0, false
	}
	t = strings.ReplaceAll(t, ",", "")
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func checkParseNumeric(t *testing.T, in string) {
	t.Helper()
	got, ok := ParseNumeric(in)
	want, wok := parseNumericRef(in)
	if ok != wok || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("ParseNumeric(%q) = %v, %v; reference %v, %v", in, got, ok, want, wok)
	}
}

var numericSeeds = []string{
	"", " ", "$", "$ ", "+", "-", ".", ",", "_", "+.", "-,", "$-",
	"42", " 42 ", "$1,234.50", "1,2,3", "-0", "+7", ".5", "5.", "1e9", "1E-3", "1e", "e5",
	"inf", "Inf", "+INF", "-infinity", "Infinit", "nan", "NaN", "+nan", "nano", "in", "n",
	"0x1p-2", "0X1.8P3", "-0x.8p1", "0x", "0x1", "0x_1p0", "1_000", "_1", "1_", "1__0", "0x1_0p0",
	"1e400", "-1e400", "4.9e-325", "12-14", "1.2.3", "ISBN123", "Used", "New: $12.99",
	"Cozy house", "12 34", "12\t", "\u00a042", "42\u0085", "\uff14\uff12", "1\x00", "$$5", "5$", "1,000,000",
}

func TestParseNumericMatchesReference(t *testing.T) {
	for _, in := range numericSeeds {
		checkParseNumeric(t, in)
	}
}

// FuzzParseNumeric holds the screened ParseNumeric to the unscreened body it
// replaced, bit for bit (NaN included).
func FuzzParseNumeric(f *testing.F) {
	for _, in := range numericSeeds {
		f.Add(in)
	}
	f.Fuzz(checkParseNumeric)
}

func checkNormalizeSpace(t *testing.T, in string) {
	t.Helper()
	if got, want := normalizeSpace(in), strings.Join(strings.Fields(in), " "); got != want {
		t.Errorf("normalizeSpace(%q) = %q, want %q", in, got, want)
	}
}

var spaceSeeds = []string{
	"", " ", "  ", "a", " a", "a ", "a b", "a  b", "a b ", " a b", "a\tb", "a\nb", "a\r\nb", "a\vb", "a\fb",
	"a\u0085b", "a\u00a0b", "\u00a0a", "a\u2003b", "é è", "a\x00b", "a\x7fb", "a\x1fb", "\xff \xfe",
	"Database Systems: The Complete Book", "Cozy   house\n on quiet street ",
}

func TestNormalizeSpaceMatchesReference(t *testing.T) {
	for _, in := range spaceSeeds {
		checkNormalizeSpace(t, in)
	}
}

// FuzzNormalizeSpace holds the fast path to strings.Fields + Join, whose
// notion of whitespace includes U+0085 and U+00A0.
func FuzzNormalizeSpace(f *testing.F) {
	for _, in := range spaceSeeds {
		f.Add(in)
	}
	f.Fuzz(checkNormalizeSpace)
}

// tokenizeRef is tokenize as it stood before the boundary cursor: a set of
// mark boundaries, looked up once per text byte.
func tokenizeRef(txt string, marks []Mark) []Token {
	boundary := make(map[int]bool, 2*len(marks))
	for _, m := range marks {
		boundary[m.Start] = true
		boundary[m.End] = true
	}
	var out []Token
	inTok := false
	start := 0
	for i := 0; i <= len(txt); i++ {
		isSpace := i == len(txt) || txt[i] == ' ' || txt[i] == '\t' || txt[i] == '\n' || txt[i] == '\r'
		switch {
		case !inTok && !isSpace:
			inTok = true
			start = i
		case inTok && isSpace:
			out = append(out, Token{Start: start, End: i})
			inTok = false
		case inTok && boundary[i]:
			out = append(out, Token{Start: start, End: i})
			start = i
		}
	}
	return out
}

// fuzzMarks decodes three bytes a mark: kind, start and end, the offsets
// signed so that negative, past-the-end, empty and inverted marks occur.
func fuzzMarks(raw []byte) []Mark {
	var marks []Mark
	for ; len(raw) >= 3; raw = raw[3:] {
		marks = append(marks, Mark{Kind: MarkKind(raw[0] % 9), Start: int(int8(raw[1])), End: int(int8(raw[2]))})
	}
	return marks
}

func checkTokenize(t *testing.T, txt string, raw []byte) {
	t.Helper()
	marks := fuzzMarks(raw)
	if got, want := NewDocument("f", txt, marks).Tokens(), tokenizeRef(txt, marks); !slices.Equal(got, want) {
		t.Errorf("tokens of %q under marks %v = %v, reference %v", txt, marks, got, want)
	}
}

var tokenizeSeeds = []struct {
	txt   string
	marks []byte
}{
	{"", nil},
	{"Cozy house on quiet street", nil},
	{"<b>Basktall</b>, 42", []byte{0, 0, 8}},
	{"Basktall, High School", []byte{0, 0, 8, 3, 10, 21, 5, 0, 21}},
	{"ab\tcd\r\nef  gh", []byte{1, 1, 1, 2, 3, 1, 4, 5, 6, 2, 200, 100, 6, 40, 3}},
	{"x", []byte{0, 0, 0, 1, 1, 1, 2, 255, 2}},
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, c := range tokenizeSeeds {
		checkTokenize(t, c.txt, c.marks)
	}
}

// FuzzTokenize holds the boundary cursor to the per-byte set lookup it
// replaced, over arbitrary text and arbitrary marks.
func FuzzTokenize(f *testing.F) {
	for _, c := range tokenizeSeeds {
		f.Add(c.txt, c.marks)
	}
	f.Fuzz(checkTokenize)
}

func TestFastPathsDoNotAllocate(t *testing.T) {
	d := NewDocument("d", "Cozy house on a quiet street, $351,000", nil)
	phrase := d.Span(0, 28)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := phrase.Numeric(); ok {
			t.Fatal("a phrase parsed as a number")
		}
	}); n != 0 {
		t.Errorf("rejecting a multi-token span allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if phrase.NormText() != phrase.Text() {
			t.Fatal("clean text was rewritten")
		}
	}); n != 0 {
		t.Errorf("NormText of already-normalised text allocates %v times", n)
	}
	as := DedupAssignments([]Assignment{ExactOf(d.Span(0, 4)), ContainOf(d.Span(5, 10)), ContainOf(d.Span(14, 28))})
	if n := testing.AllocsPerRun(100, func() {
		if !CanonicalAssignments(as) {
			t.Fatal("a deduplicated list is not canonical")
		}
	}); n != 0 {
		t.Errorf("CanonicalAssignments allocates %v times", n)
	}
}

var (
	sinkFloat  float64
	sinkBool   bool
	sinkString string
)

func BenchmarkParseNumeric(b *testing.B) {
	for _, c := range []struct{ name, in string }{
		{"number", "$1,234.50"},
		{"rejected_phrase", "Database Systems: The Complete Book"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFloat, sinkBool = ParseNumeric(c.in)
			}
		})
	}
}

func BenchmarkNormText(b *testing.B) {
	for _, c := range []struct{ name, body string }{
		{"clean", "Database Systems: The Complete Book"},
		{"needs_rewriting", "Database  Systems:\n The Complete Book "},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewDocument("d", c.body, nil).WholeSpan()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkString = s.NormText()
			}
		})
	}
}
