package similarity

import "slices"

// Lists is an inverted index from token ids to lists of int32 indices —
// the values or the tuples holding each token — laid out as a sorted CSR:
// vals[off[k]:off[k+1]] is the list of toks[k], toks ascending. Rank
// orders its tokens by rarity for a probe's prefix filter. Lists is
// read-only once built and ranked.
type Lists struct {
	toks []uint32
	off  []int32
	vals []int32
	rank []uint32 // rank[k] is toks[k]'s; nil until Rank
}

// NewLists builds the lists of token<<32|index pairs, sorting packed in
// place. A pair may not repeat.
func NewLists(packed []uint64) Lists {
	slices.Sort(packed)
	n := 0
	for k, p := range packed {
		if k == 0 || p>>32 != packed[k-1]>>32 {
			n++
		}
	}
	l := Lists{toks: make([]uint32, 0, n), off: make([]int32, 0, n+1), vals: make([]int32, len(packed))}
	for k, p := range packed {
		if k == 0 || p>>32 != packed[k-1]>>32 {
			l.toks = append(l.toks, uint32(p>>32))
			l.off = append(l.off, int32(k))
		}
		l.vals[k] = int32(uint32(p))
	}
	l.off = append(l.off, int32(len(packed)))
	return l
}

// Of returns the list of tok, nil when it has none. Shared: callers must
// not mutate it.
func (l *Lists) Of(tok uint32) []int32 {
	k, ok := slices.BinarySearch(l.toks, tok)
	if !ok {
		return nil
	}
	return l.vals[l.off[k]:l.off[k+1]]
}

// Rank numbers the listed tokens from 1 by ascending list length, ties by
// token string in v, so that the order does not depend on the order ids
// were interned in.
func (l *Lists) Rank(v *Vocab) {
	ks := slices.Clone(l.toks)
	v.SortByToken(ks)
	keys := make([]uint64, len(ks)) // list length, then place by string
	for i, tok := range ks {
		k, _ := slices.BinarySearch(l.toks, tok)
		ks[i], keys[i] = uint32(k), uint64(l.off[k+1]-l.off[k])<<32|uint64(i)
	}
	slices.Sort(keys)
	l.rank = make([]uint32, len(ks))
	for r, key := range keys {
		l.rank[ks[uint32(key)]] = uint32(r + 1)
	}
}

// Ranked reports whether Rank has run.
func (l *Lists) Ranked() bool { return l.rank != nil }

// RankOf returns tok's rank: 1 for the token the fewest lists hold, and 0
// for a token without a list or when the lists are not ranked.
func (l *Lists) RankOf(tok uint32) uint32 {
	if k, ok := slices.BinarySearch(l.toks, tok); ok && l.rank != nil {
		return l.rank[k]
	}
	return 0
}

// Bytes is the size of the lists' arrays, ranks included.
func (l *Lists) Bytes() int64 {
	return 4 * int64(len(l.toks)+len(l.off)+len(l.vals)+len(l.rank))
}
