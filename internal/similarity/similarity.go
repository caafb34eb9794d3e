// Package similarity implements the approximate string matching used by
// the paper's p-functions approxMatch and similar: token Jaccard overlap
// and TF/IDF cosine similarity, built from scratch on a simple
// punctuation-stripping tokenizer.
package similarity

import (
	"math"
	"slices"
	"sort"
)

// Tokens lower-cases s, strips punctuation, and splits into tokens.
// Leading articles ("the", "a", "an") are kept; callers that want
// article-insensitive matching use NormalizedTokens.
func Tokens(s string) []string {
	var out []string
	var arr [32]byte
	for tok, pos := nextToken(s, 0, arr[:0]); tok != nil; tok, pos = nextToken(s, pos, arr[:0]) {
		out = append(out, string(tok))
	}
	return out
}

// EachToken calls yield with each token of Tokens(s), in order, as bytes:
// a caller that looks tokens up (m[string(tok)] makes no string) builds a
// string only for one it keeps. tok is valid only until yield returns.
// Its scratch buffer escapes to yield, so a call allocates once.
func EachToken(s string, yield func(tok []byte)) {
	var arr [32]byte
	for tok, pos := nextToken(s, 0, arr[:0]); tok != nil; tok, pos = nextToken(s, pos, arr[:0]) {
		yield(tok)
	}
}

// nextToken scans s from pos and returns the next token, lower-cased into
// buf, with the position to resume from; tok is nil at the end of s. The
// scan is byte-wise (non-ASCII bytes separate tokens, exactly as a
// rune-wise mapping would) because tokenisation dominates similarity-join
// profiles.
func nextToken(s string, pos int, buf []byte) (tok []byte, next int) {
	for ; pos < len(s); pos++ {
		c := s[pos]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			buf = append(buf, c)
		case c >= 'A' && c <= 'Z':
			buf = append(buf, c+('a'-'A'))
		case len(buf) > 0:
			return buf, pos
		}
	}
	if len(buf) > 0 {
		return buf, pos
	}
	return nil, pos
}

// TFIDF holds document frequencies learned from a corpus of strings and
// scores pairs with cosine similarity of TF/IDF vectors.
type TFIDF struct {
	df map[string]int
	n  int
}

// NewTFIDF builds document-frequency statistics from the corpus.
func NewTFIDF(corpus []string) *TFIDF {
	t := &TFIDF{df: make(map[string]int), n: len(corpus)}
	for _, doc := range corpus {
		seen := map[string]bool{}
		for _, tok := range Tokens(doc) {
			if !seen[tok] {
				seen[tok] = true
				t.df[tok]++
			}
		}
	}
	return t
}

// idf returns the smoothed inverse document frequency of a token.
func (t *TFIDF) idf(tok string) float64 {
	return math.Log(1 + float64(t.n+1)/float64(t.df[tok]+1))
}

// vector builds the TF/IDF vector of s: its distinct tokens in ascending
// order, and their weights.
func (t *TFIDF) vector(s string) ([]string, map[string]float64) {
	tf := map[string]float64{}
	for _, tok := range Tokens(s) {
		tf[tok]++
	}
	toks := make([]string, 0, len(tf))
	for tok := range tf {
		tf[tok] *= t.idf(tok)
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	return toks, tf
}

// Cosine returns the TF/IDF cosine similarity of a and b in [0, 1]. The
// sums run in token order, so the result is the same bits on every call
// and Cosine(a, b) == Cosine(b, a).
func (t *TFIDF) Cosine(a, b string) float64 {
	ta, va := t.vector(a)
	tb, vb := t.vector(b)
	var dot, na, nb float64
	for _, tok := range ta {
		na += va[tok] * va[tok]
		dot += va[tok] * vb[tok]
	}
	for _, tok := range tb {
		nb += vb[tok] * vb[tok]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Similar is the default implementation of the paper's similar /
// approxMatch p-function: true when the normalised strings are equal, one
// contains the other as a token prefix ("Basktall" vs "Basktall HS"), or
// their Jaccard similarity reaches 0.6 — the Default Spec. Each side is
// tokenised exactly once.
func Similar(a, b string) bool {
	return SimilarTokens(NormalizedTokens(a), NormalizedTokens(b))
}

// SimilarTokens is Similar over pre-normalised token slices (see
// NormalizedTokens): the pair is interned on the spot and decided by
// Default.Match. Callers comparing a value many times intern it once into
// a Vocab instead.
func SimilarTokens(ta, tb []string) bool {
	var buf [2 * pairLocalMax]uint32
	return Default.Match(pairRecords(&buf, ta, tb))
}

// NormalizedTokens returns the tokens of s with leading articles removed.
// "The Godfather" and "Godfather, The" should match, so a trailing article
// (the comma style) first moves to the front — to be dropped there, as
// Normalized does on ids.
func NormalizedTokens(s string) []string {
	toks := Tokens(s)
	switch n := len(toks); {
	case n > 1 && slices.Contains(articles[:], toks[n-1]):
		return toks[:n-1]
	case n > 1 && slices.Contains(articles[:], toks[0]):
		return toks[1:]
	}
	return toks
}
