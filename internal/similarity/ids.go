package similarity

import (
	"slices"
	"strings"
	"sync"
)

// Vocab interns tokens to dense uint32 ids so that similarity runs on
// integers: a value tokenises once into a Record and every comparison
// after that is a sorted-int merge. A Vocab is safe for concurrent use and
// only grows; ids depend on interning order, so nothing observable may
// depend on their numeric order (use Token to order by string).
type Vocab struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	toks []string
}

// The articles NormalizedTokens strips are interned first, so article handling on
// ids is a comparison against numArticles.
var articles = [...]string{"the", "a", "an"}

const numArticles = uint32(len(articles))

// NewVocab returns a vocabulary holding only the articles.
func NewVocab() *Vocab {
	v := &Vocab{ids: make(map[string]uint32, 64)}
	for _, a := range articles {
		v.Intern(a)
	}
	return v
}

// Intern returns tok's id, assigning the next one on first sight.
func (v *Vocab) Intern(tok string) uint32 {
	v.mu.RLock()
	id, ok := v.ids[tok]
	v.mu.RUnlock()
	if ok {
		return id
	}
	return v.add(tok)
}

func (v *Vocab) add(tok string) uint32 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[tok]; ok {
		return id
	}
	id := uint32(len(v.toks))
	v.ids[tok] = id
	v.toks = append(v.toks, tok)
	return id
}

// Token returns the string an id was interned from.
func (v *Vocab) Token(id uint32) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.toks[id]
}

// SortByToken sorts ids, each interned before the call, by token string.
// It takes the lock once, not once per comparison: interned tokens never
// change, so the table it read under the lock stays valid without it.
func (v *Vocab) SortByToken(ids []uint32) {
	v.mu.RLock()
	toks := v.toks
	v.mu.RUnlock()
	slices.SortFunc(ids, func(a, b uint32) int { return strings.Compare(toks[a], toks[b]) })
}

// CountTokens returns len(Tokens(s)) without interning a token.
func CountTokens(s string) int {
	var arr [32]byte
	n := 0
	for tok, pos := nextToken(s, 0, arr[:0]); tok != nil; tok, pos = nextToken(s, pos, arr[:0]) {
		n++
	}
	return n
}

// AppendTokens appends the ids of Tokens(s) to dst without materialising
// the token strings (a known token costs one map probe, no allocation).
func (v *Vocab) AppendTokens(dst []uint32, s string) []uint32 {
	dst, _ = v.AppendTokenBounds(dst, nil, s)
	return dst
}

// AppendTokenBounds is AppendTokens that also appends the byte offsets of
// each token in s, its start and then its end, to bounds — unless bounds
// is nil.
func (v *Vocab) AppendTokenBounds(dst, bounds []uint32, s string) ([]uint32, []uint32) {
	var arr [32]byte
	v.mu.RLock()
	for tok, pos := nextToken(s, 0, arr[:0]); tok != nil; tok, pos = nextToken(s, pos, arr[:0]) {
		id, ok := v.ids[string(tok)]
		if !ok {
			v.mu.RUnlock()
			id = v.add(string(tok))
			v.mu.RLock()
		}
		dst = append(dst, id)
		if bounds != nil {
			bounds = append(bounds, uint32(pos-len(tok)), uint32(pos))
		}
	}
	v.mu.RUnlock()
	return dst, bounds
}

// AppendNormalized appends the ids of NormalizedTokens(s) to dst.
func (v *Vocab) AppendNormalized(dst []uint32, s string) []uint32 {
	n := len(dst)
	dst = v.AppendTokens(dst, s)
	norm := Normalized(dst[n:])
	return dst[:n+copy(dst[n:], norm)]
}

// Normalized applies NormalizedTokens' article rule to a token id
// sequence — a trailing article moves to the front, then a leading
// article is dropped — as a sub-slice of ids: the moved article is the
// one dropped, so no id ever has to move.
func Normalized(ids []uint32) []uint32 {
	switch n := len(ids); {
	case n > 1 && ids[n-1] < numArticles:
		return ids[:n-1]
	case n > 1 && ids[0] < numArticles:
		return ids[1:]
	}
	return ids
}

// AppendSet appends the sorted distinct ids of ord to dst. ord may alias
// the part of dst before the appended region.
func AppendSet(dst, ord []uint32) []uint32 {
	n := len(dst)
	dst = append(dst, ord...)
	set := dst[n:]
	if len(set) > 16 {
		slices.Sort(set)
		return dst[:n+len(slices.Compact(set))]
	}
	// A handful of tokens (a title, a name): insertion sort, then squeeze
	// out the duplicates, without leaving this function.
	for i := 1; i < len(set); i++ {
		v, j := set[i], i
		for ; j > 0 && set[j-1] > v; j-- {
			set[j] = set[j-1]
		}
		set[j] = v
	}
	w := 0
	for i, v := range set {
		if i == 0 || v != set[w-1] {
			set[w] = v
			w++
		}
	}
	return dst[:n+w]
}

// Record is one value's interned tokens: Ord in normalised reading order
// (what the token-prefix arm compares) and Set sorted and distinct (what
// the Jaccard arm merges). A value without tokens has an empty Record and
// matches nothing.
type Record struct {
	Ord, Set []uint32
}

// NewRecord builds the record of an already normalised id sequence. ord
// is retained.
func NewRecord(ord []uint32) Record {
	return Record{Ord: ord, Set: AppendSet(make([]uint32, 0, len(ord)), ord)}
}

// Record interns an already normalised token sequence (NormalizedTokens
// output, or a document index's stored equivalent).
func (v *Vocab) Record(toks []string) Record {
	ord := make([]uint32, len(toks))
	for i, t := range toks {
		ord[i] = v.Intern(t)
	}
	return NewRecord(ord)
}

// Spec declares a token similarity: two values match when the Jaccard
// overlap of their distinct tokens is at least Num/Den or — with Prefix —
// when one normalised token sequence is a prefix of the other. The
// threshold is a ratio (0 < Num <= Den) so that every decision is integer
// arithmetic; the filters a similarity join derives from a Spec (CanMatch,
// PrefixLen) are exact consequences of it.
type Spec struct {
	Num, Den int
	Prefix   bool
}

// Default is the similarity of the paper's similar/approxMatch: Jaccard at
// least 0.6 or token-prefix containment (which covers normalised equality).
var Default = Spec{Num: 3, Den: 5, Prefix: true}

// Match reports whether a and b are similar under the spec. It allocates
// nothing.
func (sp Spec) Match(a, b Record) bool {
	if !sp.CanMatch(a, b) {
		return false
	}
	if sp.Prefix && (idPrefix(a.Ord, b.Ord) || idPrefix(b.Ord, a.Ord)) {
		return true
	}
	// inter/union >= Num/Den with union = |a|+|b|-inter rearranges to
	// (Num+Den)·inter >= Num·(|a|+|b|).
	total := len(a.Set) + len(b.Set)
	need := (sp.Num*total + sp.Num + sp.Den - 1) / (sp.Num + sp.Den)
	return overlap(a.Set, b.Set, need) >= need
}

// CanMatch is the cheap necessary condition for Match: the set sizes allow
// the Jaccard threshold (the smaller over the larger bounds the overlap
// from above), or the sequences start with the same token, which the
// prefix arm requires. Empty records match nothing.
func (sp Spec) CanMatch(a, b Record) bool {
	if len(a.Ord) == 0 || len(b.Ord) == 0 {
		return false
	}
	lo, hi := len(a.Set), len(b.Set)
	if lo > hi {
		lo, hi = hi, lo
	}
	return sp.Den*lo >= sp.Num*hi || sp.Prefix && a.Ord[0] == b.Ord[0]
}

// PrefixLen is how many of a value's n distinct tokens — in any one order —
// must be probed to meet every value within the Jaccard threshold: a match
// shares at least ceil(n·Num/Den) of them, so at most n minus that many can
// be missing from the other side, and one more than that cannot all miss.
func (sp Spec) PrefixLen(n int) int {
	return min(n, n-(n*sp.Num+sp.Den-1)/sp.Den+1)
}

// overlap counts the ids common to two ascending distinct lists. It stops
// as soon as need can no longer be reached, returning the count so far
// (which is then below need); need <= 0 always counts in full.
func overlap(a, b []uint32, need int) int {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		if rest := min(len(a)-i, len(b)-j); inter+rest < need {
			break
		}
		switch x, y := a[i], b[j]; {
		case x == y:
			inter++
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return inter
}

// idPrefix reports whether a is a non-empty prefix of b (equal sequences
// included).
func idPrefix(a, b []uint32) bool {
	if len(a) == 0 || len(a) > len(b) {
		return false
	}
	for i, x := range a {
		if b[i] != x {
			return false
		}
	}
	return true
}

// signature packs a token's length and end bytes into one word; tokens
// that differ in it differ.
func signature(t string) uint32 {
	if t == "" {
		return 0
	}
	return uint32(len(t))<<16 | uint32(t[0])<<8 | uint32(t[len(t)-1])
}

// pairLocalMax bounds the combined token count interned by linear scan;
// longer pairs go through a throwaway Vocab.
const pairLocalMax = 32

// pairRecords interns two token lists into an id space of their own, for
// the string entry points that compare one pair and keep nothing. Short
// lists — titles, names — intern by linear scan into buf (a token's id is
// the position of its first occurrence in ta followed by tb), comparing
// one-word signatures before strings, so the common call allocates nothing.
func pairRecords(buf *[2 * pairLocalMax]uint32, ta, tb []string) (Record, Record) {
	n := len(ta) + len(tb)
	if n > pairLocalMax {
		v := NewVocab()
		return v.Record(ta), v.Record(tb)
	}
	var sigs [pairLocalMax]uint32
	ord := buf[:n]
	for i := range ord {
		toks, k := ta, i
		if i >= len(ta) {
			toks, k = tb, i-len(ta)
		}
		t := toks[k]
		sig := signature(t)
		sigs[i], ord[i] = sig, uint32(i)
		for j := 0; j < i; j++ {
			if sigs[j] != sig {
				continue
			}
			if j < len(ta) && ta[j] == t || j >= len(ta) && tb[j-len(ta)] == t {
				ord[i] = ord[j]
				break
			}
		}
	}
	// First occurrences arrive in ascending id order, so a's set needs no
	// sort at all, and b's only for the ids it shares with a — all smaller
	// than the ones it introduces.
	a := Record{Ord: ord[:len(ta)], Set: buf[n:n]}
	for i, id := range a.Ord {
		if id == uint32(i) {
			a.Set = append(a.Set, id)
		}
	}
	b := Record{Ord: ord[len(ta):], Set: buf[n+len(a.Set) : n+len(a.Set)]}
	for _, id := range b.Ord {
		if id < uint32(len(ta)) {
			b.Set = append(b.Set, id)
		}
	}
	b.Set = AppendSet(b.Set[:0], b.Set)
	for i, id := range b.Ord {
		if id == uint32(len(ta)+i) {
			b.Set = append(b.Set, id)
		}
	}
	return a, b
}
