package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokens(t *testing.T) {
	got := Tokens("The Godfather, Part II (1974)!")
	want := []string{"the", "godfather", "part", "ii", "1974"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := [][2]string{
		{"The Godfather", "godfather"},
		{"Godfather, The", "godfather"},
		{"A Beautiful Mind", "beautiful mind"},
		{"An Affair", "affair"},
		{"THE", "the"}, // single token: article kept
	}
	for _, c := range cases {
		if got := Normalize(c[0]); got != c[1] {
			t.Errorf("Normalize(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestJaccard(t *testing.T) {
	if got := Jaccard("a b c", "a b c"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := Jaccard("a b", "c d"); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
	if got := Jaccard("a b c", "b c d"); got != 0.5 {
		t.Errorf("half = %v", got)
	}
	if got := Jaccard("", "a"); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(a, b string) bool {
		s1, s2 := Jaccard(a, b), Jaccard(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTFIDFCosine(t *testing.T) {
	corpus := []string{
		"database systems", "database design", "query processing",
		"transaction processing", "rare gem",
	}
	ti := NewTFIDF(corpus)
	if got := ti.Cosine("database systems", "database systems"); got < 0.999 {
		t.Errorf("self cosine = %v", got)
	}
	if got := ti.Cosine("database systems", "rare gem"); got != 0 {
		t.Errorf("disjoint cosine = %v", got)
	}
	// A rare shared token should score higher than a common shared token.
	rare := ti.Cosine("rare topic", "rare subject")
	common := ti.Cosine("database topic", "database subject")
	if rare <= common {
		t.Errorf("IDF weighting broken: rare=%v common=%v", rare, common)
	}
	if got := ti.Cosine("", "x"); got != 0 {
		t.Errorf("empty cosine = %v", got)
	}
}

// TestTFIDFCosineDeterministic: the cosine sums in one order, so repeated
// calls return the same bits and the score is symmetric — a threshold
// decision cannot flip between calls, runs or worker counts.
func TestTFIDFCosineDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	phrase := func(n int) string {
		toks := make([]string, n)
		for i := range toks {
			toks[i] = fmt.Sprintf("w%d", rng.Intn(60))
		}
		return strings.Join(toks, " ")
	}
	corpus := make([]string, 40)
	for i := range corpus {
		corpus[i] = phrase(20)
	}
	ti := NewTFIDF(corpus)
	for i := 0; i < 20; i++ {
		a, b := phrase(25), phrase(25)
		want := ti.Cosine(a, b)
		for j := 0; j < 50; j++ {
			if got := ti.Cosine(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Cosine(%q, %q) = %v, then %v", a, b, want, got)
			}
		}
		if got := ti.Cosine(b, a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Cosine not symmetric: %v one way, %v the other", want, got)
		}
	}
}

func TestSimilar(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"The Godfather", "Godfather, The", true},
		{"Basktall", "Basktall HS", true},
		{"Basktall HS", "Basktall", true},
		{"Vanhise High", "Vanhise High School", true},
		{"Casablanca", "Citizen Kane", false},
		{"", "x", false},
		{"A Very Long Identical Paper Title About Joins",
			"A Very Long Identical Paper Title About Joins", true},
	}
	for _, c := range cases {
		if got := Similar(c.a, c.b); got != c.want {
			t.Errorf("Similar(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSimilarSymmetric(t *testing.T) {
	f := func(a, b string) bool { return Similar(a, b) == Similar(b, a) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
