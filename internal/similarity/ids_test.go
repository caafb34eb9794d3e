package similarity

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// refSimilarTokens is the string kernel the id kernel replaced, kept here
// as the oracle: token-prefix either way, or map-built Jaccard compared as
// a float against 0.6.
func refSimilarTokens(ta, tb []string) bool {
	if len(ta) == 0 || len(tb) == 0 {
		return false
	}
	prefix := func(at, bt []string) bool {
		if len(at) > len(bt) {
			return false
		}
		for i, t := range at {
			if bt[i] != t {
				return false
			}
		}
		return true
	}
	if prefix(ta, tb) || prefix(tb, ta) {
		return true
	}
	set := make(map[string]uint8, len(ta)+len(tb))
	for _, t := range ta {
		set[t] |= 1
	}
	for _, t := range tb {
		set[t] |= 2
	}
	inter, union := 0, 0
	for _, m := range set {
		union++
		if m == 3 {
			inter++
		}
	}
	return float64(inter)/float64(union) >= 0.6
}

// refNormTokens is NormalizedTokens written on strings, the oracle for the
// in-place article handling on ids.
func refNormTokens(s string) []string {
	toks := Tokens(s)
	if n := len(toks); n > 1 {
		switch toks[n-1] {
		case "the", "a", "an":
			toks = append([]string{toks[n-1]}, toks[:n-1]...)
		}
	}
	if len(toks) > 1 {
		switch toks[0] {
		case "the", "a", "an":
			toks = toks[1:]
		}
	}
	return toks
}

// normalizedRecord tokenises, normalises and interns s the way the engine
// builds a live value's record.
func normalizedRecord(v *Vocab, s string) Record {
	return NewRecord(v.AppendNormalized(nil, s))
}

// checkPair asserts that every id route decides the pair as the reference
// does: a shared Vocab over pre-normalised tokens, the pair-local interning
// behind SimilarTokens, and the necessary-condition filter.
func checkPair(t *testing.T, v *Vocab, ta, tb []string) {
	t.Helper()
	want := refSimilarTokens(ta, tb)
	ra, rb := v.Record(ta), v.Record(tb)
	if got := Default.Match(ra, rb); got != want {
		t.Fatalf("Match(%q, %q) = %v, reference %v", ta, tb, got, want)
	}
	if got := Default.Match(rb, ra); got != refSimilarTokens(tb, ta) {
		t.Fatalf("Match(%q, %q) = %v, reference %v", tb, ta, got, !got)
	}
	if got := SimilarTokens(ta, tb); got != want {
		t.Fatalf("SimilarTokens(%q, %q) = %v, reference %v", ta, tb, got, want)
	}
	if want && !Default.CanMatch(ra, rb) {
		t.Fatalf("CanMatch rejects the matching pair %q, %q", ta, tb)
	}
}

// randTokens draws a token list from a small alphabet so that overlaps,
// duplicates and articles at either end are all common.
func randTokens(r *rand.Rand) []string {
	alphabet := []string{"the", "a", "an", "db", "sys", "join", "of", "text", "best", "effort", "x1", "x2", "x3"}
	n := r.Intn(9)
	if r.Intn(20) == 0 {
		n = pairLocalMax + r.Intn(8) // past the linear-scan interning
	}
	out := make([]string, n)
	for i := range out {
		out[i] = alphabet[r.Intn(len(alphabet))]
	}
	return out
}

func TestMatchEqualsReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	v := NewVocab()
	for i := 0; i < 20000; i++ {
		ta, tb := randTokens(r), randTokens(r)
		if r.Intn(4) == 0 && len(ta) > 0 {
			// A near copy: equal, extended, or one token swapped.
			tb = append([]string(nil), ta...)
			switch r.Intn(3) {
			case 0:
				tb = append(tb, randTokens(r)...)
			case 1:
				tb[r.Intn(len(tb))] = "swap"
			}
		}
		checkPair(t, v, ta, tb)
	}
}

// TestMatchThresholdBoundary walks every (intersection, union) with union
// up to 64 — including 3/5, 6/10, ... exactly on the threshold — with the
// prefix arm out of the way, so the integer arithmetic is compared with the
// float division it replaced on each representable ratio.
func TestMatchThresholdBoundary(t *testing.T) {
	v := NewVocab()
	tok := func(i int) string { return fmt.Sprintf("t%d", i) }
	for union := 1; union <= 64; union++ {
		for inter := 0; inter <= union; inter++ {
			for onlyA := 0; onlyA <= union-inter; onlyA++ {
				onlyB := union - inter - onlyA
				// Distinct first tokens keep the prefix arm from deciding,
				// except when one side has nothing of its own.
				var ta, tb []string
				for i := 0; i < onlyA; i++ {
					ta = append(ta, tok(i))
				}
				for i := 0; i < onlyB; i++ {
					tb = append(tb, tok(100+i))
				}
				for i := 0; i < inter; i++ {
					ta, tb = append(ta, tok(200+i)), append(tb, tok(200+i))
				}
				want := refSimilarTokens(ta, tb)
				if got := Default.Match(v.Record(ta), v.Record(tb)); got != want {
					t.Fatalf("inter %d union %d (%d+%d own): Match = %v, reference %v", inter, union, onlyA, onlyB, got, want)
				}
			}
		}
	}
}

func TestNormalizedRecordEqualsStrings(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	words := []string{"The", "a", "AN", "Godfather,", "Part-II", "(1974)!", "é", " ", "\t", "db2", "the"}
	v := NewVocab()
	for i := 0; i < 5000; i++ {
		var parts []string
		for n := r.Intn(7); n > 0; n-- {
			parts = append(parts, words[r.Intn(len(words))])
		}
		s := strings.Join(parts, " ")
		want := refNormTokens(s)
		if got := NormalizedTokens(s); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("NormalizedTokens(%q) = %q, want %q", s, got, want)
		}
		rec := normalizedRecord(v, s)
		if len(rec.Ord) != len(want) {
			t.Fatalf("record of %q has %d tokens, want %q", s, len(rec.Ord), want)
		}
		for k, id := range rec.Ord {
			if v.Token(id) != want[k] {
				t.Fatalf("record of %q token %d = %q, want %q", s, k, v.Token(id), want[k])
			}
		}
		// Whitespace normalisation never changes the tokens, which is what
		// lets the engine tokenise a span's raw text.
		if got := NormalizedTokens(strings.Join(strings.Fields(s), " ")); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("space-normalised %q tokenises to %q, want %q", s, got, want)
		}
	}
}

func TestPrefixLenNeverMissesAMatch(t *testing.T) {
	// For every pair of set sizes and every overlap that reaches the
	// threshold, fewer than PrefixLen tokens of a lie outside b.
	for la := 1; la <= 40; la++ {
		for lb := 1; lb <= 40; lb++ {
			for inter := 0; inter <= min(la, lb); inter++ {
				if 5*inter >= 3*(la+lb-inter) && la-inter >= Default.PrefixLen(la) {
					t.Fatalf("|a|=%d |b|=%d inter=%d: %d tokens of a miss b, prefix %d", la, lb, inter, la-inter, Default.PrefixLen(la))
				}
			}
		}
	}
}

func TestVocabConcurrentIntern(t *testing.T) {
	v := NewVocab()
	var wg sync.WaitGroup
	recs := make([]Record, 8)
	for g := range recs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				recs[g] = normalizedRecord(v, fmt.Sprintf("The shared title %d of run %d", i%17, i%5))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(recs); g++ {
		if !Default.Match(recs[0], recs[g]) {
			t.Fatalf("goroutine %d interned the same text to different ids", g)
		}
	}
}

// FuzzSimilarIDs splits each input on '|' into two token lists (tokens
// separated by spaces, so duplicates, articles and empties all occur) and
// checks every id route against the reference kernel.
func FuzzSimilarIDs(f *testing.F) {
	f.Add("the godfather|godfather the")
	f.Add("a b c|a b c d e")
	f.Add("x y z w v|x y z q r")
	f.Add("|a")
	f.Add("the|the")
	f.Add("a a a b|b a")
	f.Fuzz(func(t *testing.T, in string) {
		left, right, _ := strings.Cut(in, "|")
		checkPair(t, NewVocab(), strings.Fields(left), strings.Fields(right))
	})
}

var (
	benchSink   bool
	benchTokens []string
)

func BenchmarkTokens(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTokens = Tokens("Database Systems: The Complete Book, 2nd Edition")
	}
}

func BenchmarkVocabNormalizedRecord(b *testing.B) {
	v := NewVocab()
	var buf []uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = v.AppendNormalized(buf[:0], "Database Systems: The Complete Book, 2nd Edition")
	}
}

// BenchmarkSimilarTokensStrings times the string entry point on a pair
// that shares tokens (interned in full) and on a disjoint one (rejected
// after the cross match), beside the map-based kernel it replaced.
func BenchmarkSimilarTokensStrings(b *testing.B) {
	base := NormalizedTokens("Database Systems: The Complete Book")
	for _, c := range []struct{ name, other string }{
		{"sharing", "Readings in Database Systems"},
		{"disjoint", "Compilers: Principles, Techniques, and Tools"},
	} {
		other := NormalizedTokens(c.other)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = SimilarTokens(base, other)
			}
		})
		b.Run(c.name+"/map_kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = refSimilarTokens(base, other)
			}
		})
	}
}

// BenchmarkMatch times the kernel on the three outcomes a join meets: a
// true pair, a near miss that needs the whole merge, and a pair the size
// ratio rejects before any token is read.
func BenchmarkMatch(b *testing.B) {
	v := NewVocab()
	base := normalizedRecord(v, "Database Systems: The Complete Book")
	for _, c := range []struct{ name, other string }{
		{"true", "Database Systems the Complete Book 2nd"},
		{"near_miss", "Complete Database Book Design and Tuning"},
		{"size_rejected", "Readings in Database Systems: A Long Anthology of Papers on Storage and Query Processing"},
	} {
		other := normalizedRecord(v, c.other)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Default.Match(base, other)
			}
		})
	}
}

// BenchmarkSimilarTokensAllPairs compares every pair of 200 Zipf-worded
// titles, the mix a nested-loop caller meets: most pairs disjoint, some
// sharing a common word, few similar.
func BenchmarkSimilarTokensAllPairs(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.3, 4, 499)
	titles := make([][]string, 200)
	for i := range titles {
		for n := 2 + r.Intn(5); n > 0; n-- {
			titles[i] = append(titles[i], fmt.Sprintf("w%d", zipf.Uint64()))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range titles {
			for _, y := range titles {
				benchSink = SimilarTokens(x, y)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(titles)*len(titles)), "ns/pair")
}
