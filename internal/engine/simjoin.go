package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"iflex/internal/compact"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// simJoinNode is the fused approximate string join: cross(left, right)
// followed by a similar/approxMatch filter, evaluated with token blocking
// instead of the full Cartesian product. The paper defers approximate
// string joins to the full technical report [20]; the blocking relies on
// the p-function's guarantee that matching values share at least one
// token, which holds for the default similar/approxMatch (normalised
// equality, token-prefix containment, Jaccard >= 0.6 all require a shared
// token). A p-function that declares its token similarity
// (PFunc.Token) is decided on interned token records with exact
// prefix and length filters at tuple and value level (tokensim.go); any
// other blockable function keeps any-shared-token blocking and its opaque
// Func. Pairs whose join cells are too large to enumerate are kept
// conservatively, exactly like crossNode + funcNode would.
type simJoinNode struct {
	ident
	left, right Node
	fname       string
	leftVar     string
	rightVar    string
	cols        []string
}

func newSimJoinNode(env *Env, left, right Node, fname, leftVar, rightVar string) *simJoinNode {
	k := nodeKey{head: "simjoin[" + fname + "(" + leftVar + "," + rightVar + ")]", l: left.ID(), r: right.ID()}
	if n := env.nodes.get(k); n != nil {
		return n.(*simJoinNode)
	}
	n := &simJoinNode{left: left, right: right, fname: fname, leftVar: leftVar, rightVar: rightVar}
	n.cols = append(append([]string(nil), left.Columns()...), right.Columns()...)
	return env.nodes.put(k, n, left, right).(*simJoinNode)
}

func (n *simJoinNode) Columns() []string { return n.cols }

// wholeDocExact reports whether the cell is a single exact assignment
// covering an entire document, returning that document. Those cells —
// whole pages flowing out of a scan — are the shape the persistent token
// index has precomputed answers for. The check never pages text in
// (Document.Len is metadata).
func wholeDocExact(c compact.Cell) (*text.Document, bool) {
	if len(c.Assigns) != 1 {
		return nil, false
	}
	a := c.Assigns[0]
	d := a.Span.Doc()
	if a.Mode != text.Exact || d == nil || a.Span.Start() != 0 || a.Span.End() != d.Len() {
		return nil, false
	}
	return d, true
}

// blockTokens appends to dst the distinct ids of the lower-cased tokens
// over all value regions of an enumerable cell. With a document index
// attached, a single exact whole-document cell is answered from the stored
// token set — exactly the distinct similarity.Tokens of the page text, so
// the result is identical to tokenizing live but touches no page content.
func blockTokens(ctx *Context, c compact.Cell, dst []uint32) []uint32 {
	v := ctx.Env.vocab
	if di := ctx.Env.DocIndex; di != nil {
		if d, ok := wholeDocExact(c); ok {
			if toks, ok := di.BlockTokens(d); ok {
				statAdd(&ctx.Stats.IndexTokenHits, 1)
				for _, tok := range toks {
					dst = append(dst, v.Intern(tok))
				}
				return dst
			}
		}
	}
	// Tokens of each assignment's span cover the tokens of every encoded
	// value (values are sub-spans).
	for _, a := range c.Assigns {
		dst = v.AppendTokens(dst, a.Span.Text())
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// blockIndex serves candidate right-tuple indices by block token for one
// evaluated side of a similarity join; always lists tuples whose cells
// were too large to enumerate. It has two backings: an explicit
// token->tuples map built by tokenizing every right cell, or — when every
// right tuple is a distinct whole document known to the persistent
// inverted index — the postings lists themselves, decoded lazily per
// probed token and translated through tupOf.
//
// An index built for a declared token similarity additionally holds the
// token record of every pinned (single-valued) right cell and the rarity
// rank of every indexed token, which is what lets a pinned left cell probe
// with its rarity prefix and drop pinned candidates by length.
type blockIndex struct {
	byToken map[uint32][]int
	always  []int
	pinned  []similarity.Record // by right tuple; empty when not pinned
	rank    map[uint32]uint32   // see tokenSim.rank; nil on the postings backing
	// wide is set when some enumerable right cell holds more values than
	// MaxValuations: its pair with a pinned left cell is kept conservatively
	// on any shared token, so a pinned probe may not narrow to its prefix.
	wide bool

	post  PostingsIndex
	tupOf []int32 // doc ordinal -> right tuple index, -1 when absent
	nTup  int

	pmu    sync.RWMutex
	pcache map[uint32][]int // token -> translated candidates
}

// candidates returns the right-tuple indices whose block-token set may
// contain tok. Order is unspecified; the probe dedups and sorts the merged
// candidate set. On the postings backing, a token the index cannot answer
// falls back to every tuple (a superset is always safe — dropping
// candidates would silently under-approximate the join).
func (idx *blockIndex) candidates(v *similarity.Vocab, tok uint32) []int {
	if idx.post == nil {
		return idx.byToken[tok]
	}
	idx.pmu.RLock()
	c, ok := idx.pcache[tok]
	idx.pmu.RUnlock()
	if ok {
		return c
	}
	ords, aok := idx.post.TokenPostings(v.Token(tok))
	var out []int
	if !aok {
		out = make([]int, idx.nTup)
		for i := range out {
			out[i] = i
		}
	} else {
		for _, o := range ords {
			if o >= 0 && o < len(idx.tupOf) && idx.tupOf[o] >= 0 {
				out = append(out, int(idx.tupOf[o]))
			}
		}
	}
	idx.pmu.Lock()
	if prev, ok := idx.pcache[tok]; ok {
		out = prev
	} else {
		idx.pcache[tok] = out
	}
	idx.pmu.Unlock()
	return out
}

// memBytes approximates the index's resident size for cache accounting,
// token records included. The postings translation cache grows as tokens
// are probed; its eventual size is bounded by the probed vocabulary and is
// not re-accounted.
func (idx *blockIndex) memBytes() int64 {
	b := int64(96)
	for _, ids := range idx.byToken {
		b += 48 + 8*int64(len(ids))
	}
	b += 16 * int64(len(idx.rank))
	for _, r := range idx.pinned {
		b += 48 + 4*int64(len(r.Ord)+len(r.Set))
	}
	b += 8 * int64(len(idx.always))
	b += 4 * int64(len(idx.tupOf))
	return b
}

// postingsBlockIndex tries to back the blocking index directly by the
// persistent inverted token index. Valid only when every right tuple's
// join cell is a single exact whole-document assignment over a document
// with a distinct ordinal in the index — the shape a scan of a stored
// corpus produces. Returns nil when any tuple doesn't qualify; the caller
// then builds the per-tuple map.
func postingsBlockIndex(pi PostingsIndex, rt *compact.Table, ri int) *blockIndex {
	if pi == nil || len(rt.Tuples) == 0 {
		return nil
	}
	tupOf := make([]int32, pi.NumDocs())
	for i := range tupOf {
		tupOf[i] = -1
	}
	for j, rtp := range rt.Tuples {
		d, ok := wholeDocExact(rtp.Cells[ri])
		if !ok {
			return nil
		}
		ord, ok := pi.DocOrdinal(d)
		if !ok || ord < 0 || ord >= len(tupOf) || tupOf[ord] != -1 {
			return nil
		}
		tupOf[ord] = int32(j)
	}
	return &blockIndex{post: pi, tupOf: tupOf, nTup: len(rt.Tuples), pcache: map[uint32][]int{}}
}

// newBlockIndex picks the backing for an index over all of rt: the
// persistent inverted index when rt is a stored corpus scan (no per-run
// tokenization), an explicit map otherwise.
func newBlockIndex(ctx *Context, rt *compact.Table, ri int) *blockIndex {
	if idx := postingsBlockIndex(ctx.Env.Postings, rt, ri); idx != nil {
		statAdd(&ctx.Stats.BlockIdxPostings, 1)
		return idx
	}
	return &blockIndex{byToken: map[uint32][]int{}}
}

// fill indexes the join cells of the listed right tuples. On the map
// backing each cell tokenizes under a quarantine guard: a page that faults
// while being indexed is quarantined and the caller's whole pass restarts,
// so the survivors' subset gets a cleanly rebuilt index (a partial index is
// never kept). The guard site is "blockindex", not "pfunc": a fault here is
// attributable to the one document being tokenized, and p-function fault
// rules must keep injecting at pair granularity. sim is the join's declared
// token similarity, nil for an opaque p-function — then the postings
// backing needs no pass over the tuples at all.
func (idx *blockIndex) fill(ctx *Context, ev *EvalTrace, sim *tokenSim, rt *compact.Table, ri int, tuples []int) error {
	if idx.post != nil && sim == nil {
		return nil
	}
	if sim != nil {
		idx.pinned = make([]similarity.Record, len(rt.Tuples))
	}
	lim := ctx.Env.Limits
	var qn int64
	var toks []uint32
	for _, j := range tuples {
		cell := rt.Tuples[j].Cells[ri]
		values := cell.NumValues()
		var rec similarity.Record
		if ctx.guard(ev, "blockindex", rt.Tuples[j], []int{ri}, func() error {
			if idx.post == nil && values <= lim.MaxCellValues {
				toks = blockTokens(ctx, cell, toks[:0])
			}
			if sim != nil {
				rec = sim.pinnedRecord(cell)
			}
			return nil
		}) {
			qn++
			continue
		}
		if sim != nil {
			idx.pinned[j] = rec
		}
		switch {
		case idx.post != nil:
		case values > lim.MaxCellValues:
			idx.always = append(idx.always, j)
		default:
			idx.wide = idx.wide || values > lim.MaxValuations
			for _, tok := range toks {
				idx.byToken[tok] = append(idx.byToken[tok], j)
			}
		}
	}
	if qn > 0 {
		return quarantineErr("blockindex", qn)
	}
	if idx.post == nil {
		idx.rank = rarityRank(ctx.Env.vocab, idx.byToken)
	}
	return nil
}

// rarityRank numbers the indexed tokens from 1 by ascending posting-list
// length, ties by token string.
func rarityRank(v *similarity.Vocab, byToken map[uint32][]int) map[uint32]uint32 {
	toks := make([]uint32, 0, len(byToken))
	for tok := range byToken {
		toks = append(toks, tok)
	}
	sort.Slice(toks, func(a, b int) bool {
		if la, lb := len(byToken[toks[a]]), len(byToken[toks[b]]); la != lb {
			return la < lb
		}
		return v.Token(toks[a]) < v.Token(toks[b])
	})
	rank := make(map[uint32]uint32, len(toks))
	for i, tok := range toks {
		rank[tok] = uint32(i + 1)
	}
	return rank
}

// rightIndex builds (or fetches from the context cache) the blocking index
// of the join's right side. The cache entry is keyed by the mode and the
// right child's identity plus the join variable (and whether the index
// carries token records), so an index is shared only with executions that
// see the identical table; it lives in the same LRU as the result tables
// and counts against CacheBudget. Concurrent builders may race to
// construct the same index; the build is deterministic, so whichever lands
// in the cache is interchangeable.
func (n *simJoinNode) rightIndex(ctx *Context, ev *EvalTrace, sim *tokenSim, rt *compact.Table, ri int, all []int) (*blockIndex, error) {
	key := entryKey{mode: ctx.mode.Load(), node: n.right.ID(), aux: n.rightVar}
	if sim != nil {
		key.aux = "~" + n.rightVar
	}
	ctx.mu.Lock()
	if e := ctx.lookupLocked(key); e != nil && e.idx != nil {
		ctx.touchLocked(e)
		ctx.mu.Unlock()
		return e.idx, nil
	}
	ctx.mu.Unlock()
	idx := newBlockIndex(ctx, rt, ri)
	if err := idx.fill(ctx, ev, sim, rt, ri, all); err != nil {
		return nil, err
	}
	ctx.mu.Lock()
	if e := ctx.lookupLocked(key); e != nil && e.idx != nil {
		idx = e.idx
		ctx.touchLocked(e)
	} else {
		ctx.storeLocked(&cacheEntry{key: key, idx: idx, bytes: idx.memBytes()})
	}
	ctx.mu.Unlock()
	return idx, nil
}

// simProbe is the state one evaluation's probe chunks share.
type simProbe struct {
	ctx    *Context
	ev     *EvalTrace
	sim    *tokenSim // nil for an opaque p-function,
	fn     Func      // which the odometer then calls per value pair
	rt     *compact.Table
	li, ri int
	idx    *blockIndex // over all of rt
	all    []int       // 0..len(rt.Tuples)-1
	// rcells holds the right cells' value-level token views, built on first
	// use by whichever chunk needs one (concurrent builders race benignly —
	// the view is a pure function of the cell) and kept for the evaluation.
	rcells []atomic.Pointer[cellTokens]
}

// simChunk is one goroutine's share of a probe: its counter shard and the
// scratch its candidate generation and pair decisions reuse.
type simChunk struct {
	*simProbe
	batch *statBatch
	sc    simScratch
	stamp []uint32 // right tuple -> generation that last listed it
	gen   uint32
	cands []int
	toks  []uint32
}

var pairInvolved = []int{0, 1}

// leftSide is what one left tuple brings to each of its candidate pairs.
type leftSide struct {
	cell   compact.Cell
	pinned similarity.Record // empty when not pinned
	values *cellTokens       // built by the first pair that enumerates
}

// candidates lists, ascending, the tuples of idx that may join the left
// cell; universe is every tuple idx covers. An oversized left cell pairs
// with the whole universe. A pinned one probes with its rarity prefix and
// first token only, and skips pinned right tuples whose length rules the
// pair out. Any other cell — several values within the limits — keeps
// any-shared-token blocking: a pair of such cells may exceed MaxValuations
// and then stays in the result on the strength of one shared token.
func (c *simChunk) candidates(left *leftSide, idx *blockIndex, universe []int) (cands []int, oversized bool) {
	if left.cell.NumValues() > c.ctx.Env.Limits.MaxCellValues {
		return universe, true
	}
	if c.gen++; c.gen == 0 {
		clear(c.stamp)
		c.gen = 1
	}
	v := c.ctx.Env.vocab
	cands = c.cands[:0]
	prefix := len(left.pinned.Ord) > 0 && !idx.wide
	if prefix {
		c.toks = c.sim.appendProbeKeys(c.toks[:0], left.pinned, &c.sc)
	} else {
		c.toks = blockTokens(c.ctx, left.cell, c.toks[:0])
	}
	for _, tok := range c.toks {
		for _, j := range idx.candidates(v, tok) {
			if c.stamp[j] == c.gen {
				continue
			}
			c.stamp[j] = c.gen
			if prefix && len(idx.pinned[j].Ord) > 0 && !c.sim.spec.CanMatch(left.pinned, idx.pinned[j]) {
				continue
			}
			cands = append(cands, j)
		}
	}
	for _, j := range idx.always {
		if c.stamp[j] != c.gen {
			c.stamp[j] = c.gen
			cands = append(cands, j)
		}
	}
	sort.Ints(cands)
	c.cands = cands
	return cands, false
}

// evalPair decides one candidate pair: the similarity kernel alone when
// both cells are pinned, the value-level filter when the p-function
// declares its token similarity, the odometer over the opaque
// function otherwise. qed means the pair faulted and was quarantined (the
// caller drops it); fb reports a charged valuation-limit fallback.
func (c *simChunk) evalPair(left *leftSide, j int) (m joinMatch, keep, fb, qed bool) {
	rcell := c.rt.Tuples[j].Cells[c.ri]
	// Filter over the two join cells alone — no tuple is built (let alone
	// cloned) unless the pair survives.
	pair := compact.Tuple{Cells: []compact.Cell{left.cell, rcell}}
	c.batch.SimTuplePairs++
	if c.sim != nil && len(left.pinned.Ord) > 0 && len(c.idx.pinned[j].Ord) > 0 {
		matched := false
		qed = c.ctx.guard(c.ev, "pfunc", pair, nil, func() error {
			c.batch.FuncCalls++
			c.batch.SimValuePairsProbed++
			c.batch.SimValuePairsVerified++
			matched = c.sim.spec.Match(left.pinned, c.idx.pinned[j])
			return nil
		})
		return joinMatch{j: j, sure: true}, matched && !qed, false, qed
	}
	var res filterOutcome
	if c.ctx.guard(c.ev, "pfunc", pair, nil, func() error {
		var ferr error
		if c.sim == nil {
			res, ferr = filterTupleF(pair, pairInvolved, c.fn, c.ctx.Env.Limits, c.batch)
			return ferr
		}
		res, ferr = c.sim.filter(pair, pairInvolved, c.ctx.Env.Limits,
			func() *cellTokens {
				if left.values == nil {
					left.values = c.sim.cellTokens(left.cell, true, &c.sc)
				}
				return left.values
			},
			func() *cellTokens {
				ct := c.rcells[j].Load()
				if ct == nil {
					ct = c.sim.cellTokens(rcell, false, &c.sc)
					c.rcells[j].Store(ct)
				}
				return ct
			}, &c.sc, c.batch)
		return ferr
	}) {
		return joinMatch{}, false, false, true
	}
	return joinMatch{j: j, sure: res.sure, repl: res.repl}, res.keep, res.fallback, false
}

// probe joins one left tuple against the right tuples idx covers:
// candidates by blocking, then one decision per candidate pair. It returns
// the matches in ascending right-tuple order, the valuation-limit
// fallbacks charged (the left cell's own oversize only when chargeOversize
// — a corpus replay already carries it), and whether anything was
// quarantined: a candidate pair that faulted (both pair documents are
// attributed, the guard cannot tell which side did), or the tuple itself.
//
// Tokenizing the left cell can page its document in; a load fault
// quarantines the tuple's documents and drops it, like a faulting
// candidate pair. Site "blockindex" (single-document attribution), never
// "pfunc".
func (c *simChunk) probe(ltp compact.Tuple, idx *blockIndex, universe []int, chargeOversize bool) (ms []joinMatch, fb int32, qed bool) {
	left := leftSide{cell: ltp.Cells[c.li]}
	var cands []int
	if c.ctx.guard(c.ev, "blockindex", ltp, []int{c.li}, func() error {
		if c.sim != nil {
			left.pinned = c.sim.pinnedRecord(left.cell)
		}
		var oversized bool
		cands, oversized = c.candidates(&left, idx, universe)
		// (Counted as a fallback only on the probe side — the index side is
		// built by whichever goroutine wins a benign race, so counting there
		// would vary with the worker count.)
		if fb = 0; oversized && chargeOversize {
			fb = 1
		}
		return nil
	}) {
		return nil, 0, true
	}
	for _, j := range cands {
		m, keep, fbp, pq := c.evalPair(&left, j)
		if pq {
			qed = true
			continue
		}
		if fbp {
			fb++
		}
		if keep {
			ms = append(ms, m)
		}
	}
	return ms, fb, qed
}

func (n *simJoinNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, in []*compact.Table) (*compact.Table, error) {
	pf, ok := ctx.Env.Funcs[n.fname]
	if !ok {
		return nil, fmt.Errorf("engine: p-function %q not bound", n.fname)
	}
	lt, rt := in[0], in[1]
	var err error
	p := &simProbe{ctx: ctx, ev: ev, fn: pf.Fn, rt: rt,
		li: colIndex(lt.Cols, n.leftVar), ri: colIndex(rt.Cols, n.rightVar)}
	if pf.Token != nil {
		p.sim = &tokenSim{ctx: ctx, spec: *pf.Token}
		p.rcells = make([]atomic.Pointer[cellTokens], len(rt.Tuples))
	}
	p.all = make([]int, len(rt.Tuples))
	for j := range p.all {
		p.all[j] = j
	}
	// Index right tuples by block token; oversized cells go on the
	// always-candidate list. The index is cached per (subset, right side).
	if p.idx, err = n.rightIndex(ctx, ev, p.sim, rt, p.ri, p.all); err != nil {
		return nil, err
	}
	if p.sim != nil {
		p.sim.rank = p.idx.rank
	}
	li, ri := p.li, p.ri
	// The loop runs over left tuples; each chunk keeps its own candidate
	// stamps. Candidates are probed in ascending right-tuple order (the token
	// index enumerates a map), which also makes the output order
	// deterministic run to run. The delta memo is per left tuple and depends
	// only on the left join cell; the right side is pinned by a content
	// fingerprint of its join column, so the memo survives re-evaluations of
	// either side that leave the join-relevant cells intact.
	op := tupleOp{site: "pfunc", cols: []int{li}, right: rt, rightCols: []int{ri}, minChunk: minChunkProbe}
	// Corpus-mode reconciliation: after ApplyCorpusDelta the displaced
	// memo's right table was rebuilt by this same re-evaluation, so the pin
	// rejects it even though almost every right tuple is unchanged. Align the
	// two right tables structurally (span identity — only tuples from
	// unchanged documents can align) and block the unmatched "fresh" right
	// tuples separately: a memo-hit left tuple then replays its surviving
	// matches remapped to current indices and probes only the fresh tuples,
	// instead of the whole right side.
	var rec *simRecon
	var freshIdx *blockIndex
	op.reconcile = func(oldRight *compact.Table) (bool, error) {
		if rec = buildSimRecon(oldRight, rt); rec == nil {
			return false, nil
		}
		freshIdx = &blockIndex{byToken: map[uint32][]int{}}
		return true, freshIdx.fill(ctx, ev, p.sim, rt, ri, rec.fresh)
	}
	op.open = func(batch *statBatch) decideFn {
		c := &simChunk{simProbe: p, batch: batch, stamp: make([]uint32, len(rt.Tuples))}
		return func(ltp compact.Tuple, old *deltaOut) (deltaOut, bool, bool, error) {
			if old != nil && rec == nil {
				return *old, true, false, nil
			}
			if old == nil {
				ms, fb, qed := c.probe(ltp, p.idx, p.all, true)
				return deltaOut{sim: ms, fallbacks: fb}, false, qed, nil
			}
			// Corpus replay: remap the matches whose right tuple survived
			// the mutation, probe only the fresh right tuples, and merge
			// in ascending right-index order — the order a full probe
			// over the identical candidate set would have produced, so
			// the output is byte-identical. (An oversized left cell pairs
			// with every fresh tuple; the replayed fallback count already
			// charged the oversize.)
			fresh, fb, qed := c.probe(ltp, freshIdx, rec.fresh, false)
			ms := make([]joinMatch, 0, len(old.sim)+len(fresh))
			for _, m := range old.sim {
				if nj := rec.newJ[m.j]; nj >= 0 {
					ms = append(ms, joinMatch{j: nj, sure: m.sure, repl: m.repl})
				}
			}
			ms = append(ms, fresh...)
			sort.Slice(ms, func(a, b int) bool { return ms[a].j < ms[b].j })
			return deltaOut{sim: ms, fallbacks: old.fallbacks + fb}, true, qed, nil
		}
	}
	// emit assembles the output tuple of each matching pair from the current
	// pair of tuples, carrying refreshed non-join cells, with shallow cell
	// copies (cells are immutable once built); only kept pairs allocate
	// anything at all.
	op.emit = func(dst []compact.Tuple, ltp compact.Tuple, o *deltaOut) []compact.Tuple {
		for _, m := range o.sim {
			rtp := rt.Tuples[m.j]
			cells := make([]compact.Cell, 0, len(ltp.Cells)+len(rtp.Cells))
			cells = append(cells, ltp.Cells...)
			cells = append(cells, rtp.Cells...)
			if c, ok := m.repl[0]; ok {
				cells[li] = c
			}
			if c, ok := m.repl[1]; ok {
				cells[len(lt.Cols)+ri] = c
			}
			dst = append(dst, compact.Tuple{Cells: cells, Maybe: ltp.Maybe || rtp.Maybe || !m.sure})
		}
		return dst
	}
	return ctx.tupleLoop(ev, dx, lt, n.cols, op)
}

// simRecon aligns the right table a displaced memo was built against
// with the current right table after a corpus re-evaluation. Alignment
// is whole-tuple structural identity — spans compare by document
// pointer, and unchanged documents keep their handles across a store
// mutation, so exactly the tuples sourced from unchanged documents
// align (updated documents get fresh handles and read as fresh tuples).
// Both views preserve relative document order, so the mapping is
// monotonic; the probe loop still sorts merged matches for safety.
type simRecon struct {
	// newJ maps an old right index to its current one, -1 when the tuple
	// is gone (its document was updated or removed).
	newJ []int
	// fresh lists current right indices with no aligned predecessor
	// (added or updated documents), ascending.
	fresh []int
}

// buildSimRecon pairs old and new right tuples greedily in order within
// fingerprint buckets (duplicates pair first-to-first; any consistent
// pairing is valid — aligned tuples are structurally interchangeable).
// Returns nil when the tables cannot correspond.
func buildSimRecon(oldRt, newRt *compact.Table) *simRecon {
	if oldRt == nil || len(oldRt.Cols) != len(newRt.Cols) {
		return nil
	}
	rec := &simRecon{newJ: make([]int, len(oldRt.Tuples))}
	buckets := make(map[uint64][]int, len(oldRt.Tuples))
	for j, tp := range oldRt.Tuples {
		rec.newJ[j] = -1
		h := tp.Fingerprint()
		buckets[h] = append(buckets[h], j)
	}
	for j, tp := range newRt.Tuples {
		h := tp.Fingerprint()
		aligned := false
		bs := buckets[h]
		for k, oj := range bs {
			if oldRt.Tuples[oj].StructuralEq(tp) {
				rec.newJ[oj] = j
				buckets[h] = append(bs[:k:k], bs[k+1:]...)
				aligned = true
				break
			}
		}
		if !aligned {
			rec.fresh = append(rec.fresh, j)
		}
	}
	return rec
}
