package engine

import (
	"slices"

	"iflex/internal/compact"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// tokenSim decides a p-function with a declared token similarity
// (PFunc.Token) on interned token records. It is shared by the fused
// similarity join and the unfused σ[similar(a,b)] selection, and safe for
// concurrent use: mutable state lives in the caller's simScratch.
//
// Exactness of the filters (DESIGN.md §10): a pair of values within the
// Jaccard threshold shares one of the PrefixLen rarest distinct tokens of
// either value, whichever order "rarest" means, because fewer than that
// many of its tokens can be missing from the other side; a token-prefix
// pair starts with the same token. So probing an index of *all* tokens of
// the other side's values with those keys meets every matching value, and
// the order only decides how many non-matching ones come along.
type tokenSim struct {
	ctx  *Context
	spec similarity.Spec
	// idx ranks tokens by ascending frequency on the join's right side
	// (1 = rarest, similarity.Lists.Rank). nil, or an index without ranks,
	// ranks everything alike, and rarest then means first by token string,
	// so the probe keys — and with them the work counters — never depend
	// on the order ids were interned in.
	idx *blockIndex
}

// simScratch is the reusable working set of one goroutine's pair
// decisions.
type simScratch struct {
	packed []uint64
	seen   []uint64
	sat    [2][]bool
	ids    []uint32
	docs   docCursor
}

// records returns the token records of a's values: an exact whole page's
// from Env.DocIndex when it can answer, anything else's from the record
// table of its document, which builds them once per (span, mode).
func (ts *tokenSim) records(a text.Assignment, docs *docCursor) []similarity.Record {
	if recs, ok := ts.ctx.Env.FeatureMemo.IndexRecords(a, ts.ctx.Env.DocIndex); ok {
		statAdd(&ts.ctx.Stats.IndexTokenHits, 1)
		return recs
	}
	return docs.of(a.Span.Doc()).Records(a)
}

// pinnedRecord returns the record of a cell pinned to one value, and the
// empty record otherwise (several values, or a value without tokens).
func (ts *tokenSim) pinnedRecord(c compact.Cell, docs *docCursor) similarity.Record {
	if _, ok := c.Singleton(); ok {
		for _, a := range c.Assigns {
			if recs := ts.records(a, docs); len(recs) > 0 {
				return recs[0]
			}
		}
	}
	return similarity.Record{}
}

// appendProbeKeys appends the tokens under which x must be looked up to
// meet every value it can match: its PrefixLen rarest distinct tokens and,
// for the prefix arm, its first token. With ranks, every rank-0 token is a
// key: it is in no right cell's blocking set, so the index lists nothing
// under it, and taking them all needs no order among them (DESIGN.md §10).
func (ts *tokenSim) appendProbeKeys(dst []uint32, x similarity.Record, sc *simScratch) []uint32 {
	if len(x.Ord) == 0 {
		return dst
	}
	n := len(dst)
	if ts.idx == nil || !ts.idx.lists.Ranked() {
		sc.ids = append(sc.ids[:0], x.Set...)
		ts.ctx.Env.FeatureMemo.Vocab().SortByToken(sc.ids)
		dst = append(dst, sc.ids[:ts.spec.PrefixLen(len(sc.ids))]...)
	} else {
		packed := sc.packed[:0]
		for _, id := range x.Set {
			packed = append(packed, uint64(ts.idx.lists.RankOf(id))<<32|uint64(id))
		}
		sc.packed = packed
		slices.Sort(packed)
		zeros := 0
		for zeros < len(packed) && packed[zeros]>>32 == 0 {
			zeros++
		}
		for _, p := range packed[:max(zeros, ts.spec.PrefixLen(len(packed)))] {
			dst = append(dst, uint32(p))
		}
	}
	if first := x.Ord[0]; ts.spec.Prefix && !slices.Contains(dst[n:], first) {
		dst = append(dst, first)
	}
	return dst
}

// cellTokens is the token view of one enumerable cell: a record per value
// in Cell.Values order, plus what the value-level probe walks — the probe
// keys of each value on the left side of a pair, lists from token to the
// values containing it on the right side.
type cellTokens struct {
	recs []similarity.Record
	// keys[koff[a]:koff[a+1]] are value a's probe keys (left side).
	keys []uint32
	koff []int32
	similarity.Lists
}

// cellTokens reads the records of every value of c from the record tables.
// left selects which side of a pair the cell will stand on.
func (ts *tokenSim) cellTokens(c compact.Cell, left bool, sc *simScratch) *cellTokens {
	ct := &cellTokens{}
	for _, a := range c.Assigns {
		if recs := ts.records(a, &sc.docs); len(c.Assigns) == 1 {
			ct.recs = recs
		} else {
			ct.recs = append(ct.recs, recs...)
		}
	}
	if left {
		n := len(ct.recs)
		for _, x := range ct.recs {
			n += len(x.Set)
		}
		ct.keys, ct.koff = make([]uint32, 0, n), make([]int32, len(ct.recs)+1)
		for a, x := range ct.recs {
			ct.keys = ts.appendProbeKeys(ct.keys, x, sc)
			ct.koff[a+1] = int32(len(ct.keys))
		}
		return ct
	}
	packed := sc.packed[:0]
	for a, y := range ct.recs {
		for _, id := range y.Set {
			packed = append(packed, uint64(id)<<32|uint64(a))
		}
	}
	sc.packed = packed
	ct.Lists = similarity.NewLists(packed)
	return ct
}

// filter decides the tuple's two involved cells under the similarity with
// filterTupleF's contract and outcomes — the same keep/sure verdict,
// expansion-cell replacements and conservative fallbacks the valuation
// odometer over all |left|·|right| combinations produced — but it
// enumerates only the value pairs the probe keys surface: it looks each
// left value's keys up in the right cell's inverted list, verifies each
// surfaced pair once, and derives "any valuation satisfies", "all do" and
// the per-value satisfied sets from the matches. left and right supply the
// cells' token views and are called only once the limits allow enumeration.
func (ts *tokenSim) filter(tp compact.Tuple, involved []int, lim limits, left, right func() *cellTokens, sc *simScratch, batch *statBatch) (filterOutcome, error) {
	conservative := filterOutcome{keep: true, fallbacks: 1}
	combos := 1
	for _, ci := range involved {
		n := tp.Cells[ci].NumValues()
		if n > lim.MaxCellValues {
			return conservative, nil
		}
		if n == 0 {
			return filterOutcome{keep: false}, nil
		}
		combos *= n
	}
	if combos > lim.MaxValuations {
		return conservative, nil
	}
	l, r := left(), right()
	m, n := len(l.recs), len(r.recs)
	sc.seen = resized(sc.seen, (m*n+63)/64)
	sc.sat[0], sc.sat[1] = resized(sc.sat[0], m), resized(sc.sat[1], n)
	matches := 0
	for a, x := range l.recs {
		for _, key := range l.keys[l.koff[a]:l.koff[a+1]] {
			for _, b := range r.Of(key) {
				batch.SimValuePairsProbed++
				bit := a*n + int(b)
				if sc.seen[bit>>6]&(1<<(bit&63)) != 0 {
					continue
				}
				sc.seen[bit>>6] |= 1 << (bit & 63)
				batch.SimValuePairsVerified++
				batch.FuncCalls++
				if ts.spec.Match(x, r.recs[b]) {
					matches++
					sc.sat[0][a], sc.sat[1][b] = true, true
				}
			}
		}
	}
	switch matches {
	case 0:
		return filterOutcome{keep: false}, nil
	case m * n:
		return filterOutcome{keep: true, sure: true}, nil
	}
	return finishRepl(filterOutcome{keep: true}, tp, involved, sc.sat[:])
}
