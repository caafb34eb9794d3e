package engine

import (
	"slices"
	"strings"

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
	// rank orders tokens by ascending frequency on the join's right side
	// (1 = rarest); absent tokens rank 0 and tie-break by token string, so
	// the probe keys — and with them the work counters — do not depend on
	// the order ids were interned in. nil ranks everything 0.
	rank map[uint32]uint32
}

// simScratch is the reusable working set of one goroutine's pair
// decisions.
type simScratch struct {
	packed []uint64
	seen   []uint64
	sat    [2][]bool
}

// appendValue appends the normalised token ids of one value. A
// whole-document span is answered from the document index when one is
// attached — the stored sequence equals the live tokenisation of the page,
// so no page text is touched. Live values tokenise the span's raw text:
// whitespace normalisation (Span.NormText) never changes the tokens.
func (ts *tokenSim) appendValue(dst []uint32, s text.Span) []uint32 {
	v := ts.ctx.Env.vocab
	if di := ts.ctx.Env.DocIndex; di != nil {
		if d := s.Doc(); d != nil && s.Start() == 0 && s.End() == d.Len() {
			if toks, ok := di.NormTokens(d); ok && toks != nil {
				statAdd(&ts.ctx.Stats.IndexTokenHits, 1)
				for _, t := range toks {
					dst = append(dst, v.Intern(t))
				}
				return dst
			}
		}
	}
	return v.AppendNormalized(dst, s.Text())
}

// pinnedRecord returns the record of a cell pinned to one value, and the
// empty record otherwise (several values, or a value without tokens).
func (ts *tokenSim) pinnedRecord(c compact.Cell) similarity.Record {
	s, ok := c.Singleton()
	if !ok {
		return similarity.Record{}
	}
	return similarity.NewRecord(ts.appendValue(nil, s))
}

// appendProbeKeys appends the tokens under which x must be looked up to
// meet every value it can match: its PrefixLen rarest distinct tokens and,
// for the prefix arm, its first token.
func (ts *tokenSim) appendProbeKeys(dst []uint32, x similarity.Record, sc *simScratch) []uint32 {
	if len(x.Ord) == 0 {
		return dst
	}
	packed := sc.packed[:0]
	for _, id := range x.Set {
		packed = append(packed, uint64(ts.rank[id])<<32|uint64(id))
	}
	sc.packed = packed
	slices.Sort(packed)
	zeros := 0
	for zeros < len(packed) && packed[zeros]>>32 == 0 {
		zeros++
	}
	if zeros > 1 {
		v := ts.ctx.Env.vocab
		slices.SortFunc(packed[:zeros], func(a, b uint64) int {
			return strings.Compare(v.Token(uint32(a)), v.Token(uint32(b)))
		})
	}
	n := len(dst)
	for _, p := range packed[:ts.spec.PrefixLen(len(packed))] {
		dst = append(dst, uint32(p))
	}
	if first := x.Ord[0]; ts.spec.Prefix && !slices.Contains(dst[n:], first) {
		dst = append(dst, first)
	}
	return dst
}

// cellTokens is the token view of one enumerable cell: a record per value
// in Cell.Values order, plus what the value-level probe walks — the probe
// keys of each value on the left side of a pair, an inverted list from
// token to the values containing it on the right side.
type cellTokens struct {
	recs []similarity.Record
	// keys[koff[a]:koff[a+1]] are value a's probe keys (left side).
	keys []uint32
	koff []int32
	// vals[off[k]:off[k+1]] are the values whose token set holds toks[k];
	// toks ascends (right side).
	toks []uint32
	off  []int32
	vals []int32
}

// cellTokens tokenises every value of c once. left selects which side of
// a pair the cell will stand on.
func (ts *tokenSim) cellTokens(c compact.Cell, left bool, sc *simScratch) *cellTokens {
	var arena []uint32
	var cuts []int
	c.Values(func(s text.Span) bool {
		start := len(arena)
		arena = ts.appendValue(arena, s)
		mid := len(arena)
		arena = similarity.AppendSet(arena, arena[start:mid])
		cuts = append(cuts, start, mid, len(arena))
		return true
	})
	ct := &cellTokens{recs: make([]similarity.Record, len(cuts)/3)}
	for a := range ct.recs {
		start, mid, end := cuts[3*a], cuts[3*a+1], cuts[3*a+2]
		ct.recs[a] = similarity.Record{Ord: arena[start:mid:mid], Set: arena[mid:end:end]}
	}
	if left {
		ct.koff = make([]int32, len(ct.recs)+1)
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
	slices.Sort(packed)
	ct.vals = make([]int32, len(packed))
	for k, p := range packed {
		if tok := uint32(p >> 32); k == 0 || tok != ct.toks[len(ct.toks)-1] {
			ct.toks = append(ct.toks, tok)
			ct.off = append(ct.off, int32(k))
		}
		ct.vals[k] = int32(uint32(p))
	}
	ct.off = append(ct.off, int32(len(packed)))
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
			k, ok := slices.BinarySearch(r.toks, key)
			if !ok {
				continue
			}
			for _, b := range r.vals[r.off[k]:r.off[k+1]] {
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
