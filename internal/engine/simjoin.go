package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"iflex/internal/compact"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// simJoinNode is the fused approximate string join: cross(left, right)
// followed by a similar/approxMatch filter, evaluated with token blocking
// instead of the full Cartesian product. The paper defers approximate
// string joins to the full technical report [20]. Only a p-function that
// declares its token similarity (PFunc.Token) fuses: it is decided on
// interned token records with exact prefix and length filters at tuple
// and value level (tokensim.go), and the blocking relies on the
// declaration's guarantee that matching values share at least one token
// (normalised equality, token-prefix containment and Jaccard >= 0.6 all
// require one). Pairs whose join cells are too large to enumerate are
// kept conservatively, exactly like crossNode + funcNode would.
type simJoinNode struct {
	ident
	left, right Node
	fname       string
	leftVar     string
	rightVar    string
	cols        []string
}

func newSimJoinNode(env *Env, left, right Node, fname, leftVar, rightVar string) *simJoinNode {
	h := cat(make([]byte, 0, headCap), "simjoin[", fname, "(", leftVar, ",", rightVar, ")]")
	return env.nodes.intern(h, OpSimJoin, func() Node {
		cols := append(append([]string(nil), left.Columns()...), right.Columns()...)
		return &simJoinNode{left: left, right: right, fname: fname, leftVar: leftVar, rightVar: rightVar, cols: cols}
	}, left, right).(*simJoinNode)
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

// blockTokens returns the distinct ids of the lower-cased tokens over all
// value regions of an enumerable cell: the blocking set the record table
// keeps for its one assignment (feature.DocRecords.Block), shared and not
// to be mutated, or the union of several, built in dst.
func blockTokens(docs *docCursor, c compact.Cell, dst []uint32) []uint32 {
	if len(c.Assigns) == 1 {
		return docs.of(c.Assigns[0].Span.Doc()).Block(c.Assigns[0])
	}
	for _, a := range c.Assigns {
		dst = append(dst, docs.of(a.Span.Doc()).Block(a)...)
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// blockIndex serves candidate right-tuple indices by block token for one
// evaluated side of a similarity join; always lists tuples whose cells
// were too large to enumerate. It has two backings: sorted token->tuples
// lists built from every right cell's blocking set, or — when every
// right tuple is a distinct whole document known to the persistent
// inverted index — the postings lists themselves, decoded lazily per
// probed token and translated through tupOf.
//
// The index also holds the token record of every pinned (single-valued)
// right cell and, on the lists backing, the rarity rank of every indexed
// token, which is what lets a pinned left cell probe with its rarity
// prefix and drop pinned candidates by length.
type blockIndex struct {
	lists  similarity.Lists // ranked
	always []int
	pinned []similarity.Record // by right tuple; empty when not pinned
	// wide is set when some enumerable right cell holds more values than
	// MaxValuations: its pair with a pinned left cell is kept conservatively
	// on any shared token, so a pinned probe may not narrow to its prefix.
	wide bool

	post  PostingsIndex
	tupOf []int32 // doc ordinal -> right tuple index, -1 when absent
	nTup  int

	pmu    sync.RWMutex
	pcache map[uint32][]int32 // token -> translated candidates
}

// candidates returns the right-tuple indices whose block-token set may
// contain tok. Order is unspecified; the probe dedups and sorts the merged
// candidate set. On the postings backing, a token the index cannot answer
// falls back to every tuple (a superset is always safe — dropping
// candidates would silently under-approximate the join).
func (idx *blockIndex) candidates(v *similarity.Vocab, tok uint32) []int32 {
	if idx.post == nil {
		return idx.lists.Of(tok)
	}
	idx.pmu.RLock()
	c, ok := idx.pcache[tok]
	idx.pmu.RUnlock()
	if ok {
		return c
	}
	ords, aok := idx.post.TokenPostings(v.Token(tok))
	var out []int32
	if !aok {
		out = make([]int32, idx.nTup)
		for i := range out {
			out[i] = int32(i)
		}
	} else {
		for _, o := range ords {
			if o >= 0 && o < len(idx.tupOf) && idx.tupOf[o] >= 0 {
				out = append(out, idx.tupOf[o])
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

// memBytes approximates the index's resident size for cache accounting:
// its lists, ranks and record headers. The records' ids are the record
// tables' (feature.DocRecords), charged there. The postings translation
// cache grows as tokens are probed; its eventual size is bounded by the
// probed vocabulary and is not re-accounted.
func (idx *blockIndex) memBytes() int64 {
	return 96 + idx.lists.Bytes() + 4*int64(len(idx.tupOf)) +
		int64(unsafe.Sizeof(similarity.Record{}))*int64(len(idx.pinned)) + 8*int64(len(idx.always))
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
	return &blockIndex{post: pi, tupOf: tupOf, nTup: len(rt.Tuples), pcache: map[uint32][]int32{}}
}

// newBlockIndex picks the backing for an index over all of rt: the
// persistent inverted index when rt is a stored corpus scan (no per-run
// tokenization), lists of its own otherwise.
func newBlockIndex(ctx *Context, rt *compact.Table, ri int) *blockIndex {
	if idx := postingsBlockIndex(ctx.Env.Postings, rt, ri); idx != nil {
		statAdd(&ctx.Stats.BlockIdxPostings, 1)
		return idx
	}
	return &blockIndex{}
}

// fill indexes the join cells of every tuple of rt. Each cell tokenizes
// under a quarantine guard (on the postings backing only for its pinned
// record): a page that faults while being indexed is quarantined and the
// caller's whole pass restarts, so the survivors' subset gets a cleanly
// rebuilt index (a partial index is never kept). The guard site is "blockindex", not "pfunc": a fault here is
// attributable to the one document being tokenized, and p-function fault
// rules must keep injecting at pair granularity. sim is the join's declared
// token similarity, which builds each pinned cell's record.
func (idx *blockIndex) fill(ctx *Context, ev *EvalTrace, sim *tokenSim, rt *compact.Table, ri int) error {
	idx.pinned = make([]similarity.Record, len(rt.Tuples))
	lim := ctx.Env.limits
	docs := docCursor{memo: ctx.Env.FeatureMemo}
	var qn int64
	var toks []uint32
	var blocks [][]uint32 // the listed cells' tokens, of the tuples in rows
	var rows []uint64
	if idx.post == nil {
		blocks, rows = make([][]uint32, 0, len(rt.Tuples)), make([]uint64, 0, len(rt.Tuples))
	}
	n := 0
	for j, rtp := range rt.Tuples {
		cell := rtp.Cells[ri]
		values := cell.NumValues()
		var rec similarity.Record
		if ctx.guard(ev, "blockindex", rtp, []int{ri}, func() error {
			if idx.post == nil && values <= lim.MaxCellValues {
				toks = blockTokens(&docs, cell, nil)
			}
			rec = sim.pinnedRecord(cell, &docs)
			return nil
		}) {
			qn++
			continue
		}
		idx.pinned[j] = rec
		switch {
		case idx.post != nil:
		case values > lim.MaxCellValues:
			idx.always = append(idx.always, j)
		default:
			idx.wide = idx.wide || values > lim.MaxValuations
			blocks, rows, n = append(blocks, toks), append(rows, uint64(j)), n+len(toks)
		}
	}
	if qn > 0 {
		return quarantineErr("blockindex", qn)
	}
	if idx.post == nil {
		packed := make([]uint64, 0, n)
		for i, toks := range blocks {
			for _, tok := range toks {
				packed = append(packed, uint64(tok)<<32|rows[i])
			}
		}
		idx.lists = similarity.NewLists(packed)
		idx.lists.Rank(ctx.Env.FeatureMemo.Vocab())
	}
	return nil
}

// rightIndex builds (or fetches from the context cache) the blocking index
// of the join's right side. The cache entry is keyed by the mode and the
// right child's identity plus the join variable, so an index is shared
// only with executions that see the identical table; it lives in the same
// LRU as the result tables and counts against CacheBudget. Concurrent
// builders may race to construct the same index; the build is
// deterministic, so whichever lands in the cache is interchangeable.
func (n *simJoinNode) rightIndex(ctx *Context, ev *EvalTrace, sim *tokenSim, rt *compact.Table, ri int) (*blockIndex, error) {
	key := entryKey{mode: ctx.mode.Load(), node: n.right.ID(), aux: n.rightVar}
	ctx.mu.Lock()
	if e := ctx.lookupLocked(key); e != nil && e.idx != nil {
		ctx.touchLocked(e)
		ctx.mu.Unlock()
		return e.idx, nil
	}
	ctx.mu.Unlock()
	idx := newBlockIndex(ctx, rt, ri)
	if err := idx.fill(ctx, ev, sim, rt, ri); err != nil {
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
	sim    *tokenSim
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
	ms    []joinMatch
}

var pairInvolved = []int{0, 1}

// leftSide is what one left tuple brings to each of its candidate pairs.
type leftSide struct {
	cell   compact.Cell
	pinned similarity.Record // empty when not pinned
	values *cellTokens       // built by the first pair that enumerates
}

// candidates lists, ascending, the right tuples that may join the left
// cell. An oversized left cell pairs with every one. A pinned one probes
// with its rarity prefix and first token only, and skips pinned right
// tuples whose length rules the pair out. Any other cell — several values
// within the limits — keeps any-shared-token blocking: a pair of such cells
// may exceed MaxValuations and then stays in the result on the strength of
// one shared token.
func (c *simChunk) candidates(left *leftSide) (cands []int, oversized bool) {
	if left.cell.NumValues() > c.ctx.Env.limits.MaxCellValues {
		return c.all, true
	}
	idx := c.idx
	if c.gen++; c.gen == 0 {
		clear(c.stamp)
		c.gen = 1
	}
	v := c.ctx.Env.FeatureMemo.Vocab()
	cands = c.cands[:0]
	prefix := len(left.pinned.Ord) > 0 && !idx.wide
	keys := c.toks[:0]
	if prefix {
		c.toks = c.sim.appendProbeKeys(keys, left.pinned, &c.sc)
		keys = c.toks
	} else {
		keys = blockTokens(&c.sc.docs, left.cell, keys)
	}
	for _, tok := range keys {
		for _, j32 := range idx.candidates(v, tok) {
			j := int(j32)
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
// both cells are pinned, the value-level filter otherwise. qed means the
// pair faulted and was quarantined (the caller drops it); fb reports a
// charged valuation-limit fallback.
func (c *simChunk) evalPair(left *leftSide, j int) (m joinMatch, keep, fb, qed bool) {
	rcell := c.rt.Tuples[j].Cells[c.ri]
	// Filter over the two join cells alone — no tuple is built (let alone
	// cloned) unless the pair survives.
	pair := compact.Tuple{Cells: []compact.Cell{left.cell, rcell}}
	c.batch.SimTuplePairs++
	if len(left.pinned.Ord) > 0 && len(c.idx.pinned[j].Ord) > 0 {
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
		res, ferr = c.sim.filter(pair, pairInvolved, c.ctx.Env.limits,
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
	return joinMatch{j: j, sure: res.sure, repl: res.repl}, res.keep, res.fallbacks > 0, false
}

// probe joins one left tuple against the right table: candidates by
// blocking, then one decision per candidate pair. It returns the matches in
// ascending right-tuple order at their exact size (built in the chunk's
// scratch), the valuation-limit fallbacks charged (the left cell's own
// oversize among them), and whether anything was quarantined: a candidate
// pair that faulted (both pair documents are attributed, the guard cannot
// tell which side did), or the tuple itself.
//
// Tokenizing the left cell can page its document in; a load fault
// quarantines the tuple's documents and drops it, like a faulting
// candidate pair. Site "blockindex" (single-document attribution), never
// "pfunc".
func (c *simChunk) probe(ltp compact.Tuple) (ms []joinMatch, fb int32, qed bool) {
	left := leftSide{cell: ltp.Cells[c.li]}
	var cands []int
	if c.ctx.guard(c.ev, "blockindex", ltp, []int{c.li}, func() error {
		left.pinned = c.sim.pinnedRecord(left.cell, &c.sc.docs)
		var oversized bool
		cands, oversized = c.candidates(&left)
		// (Counted as a fallback only on the probe side — the index side is
		// built by whichever goroutine wins a benign race, so counting there
		// would vary with the worker count.)
		if fb = 0; oversized {
			fb = 1
		}
		return nil
	}) {
		return nil, 0, true
	}
	ms = c.ms[:0]
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
	c.ms = ms
	return slices.Clone(ms), fb, qed
}

func (n *simJoinNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, in []*compact.Table) (*compact.Table, error) {
	pf, ok := ctx.Env.Funcs[n.fname]
	if !ok || pf.Token == nil {
		return nil, fmt.Errorf("engine: p-function %q declares no token similarity", n.fname)
	}
	lt, rt := in[0], in[1]
	var err error
	p := &simProbe{ctx: ctx, ev: ev, sim: &tokenSim{ctx: ctx, spec: *pf.Token}, rt: rt,
		li: colIndex(lt.Cols, n.leftVar), ri: colIndex(rt.Cols, n.rightVar),
		rcells: make([]atomic.Pointer[cellTokens], len(rt.Tuples))}
	p.all = make([]int, len(rt.Tuples))
	for j := range p.all {
		p.all[j] = j
	}
	// Index right tuples by block token; oversized cells go on the
	// always-candidate list. The index is cached per (subset, right side).
	if p.idx, err = n.rightIndex(ctx, ev, p.sim, rt, p.ri); err != nil {
		return nil, err
	}
	p.sim.idx = p.idx
	li, ri := p.li, p.ri
	// The loop runs over left tuples; each chunk keeps its own candidate
	// stamps. Candidates are probed in ascending right-tuple order (the token
	// index enumerates a map), which also makes the output order
	// deterministic run to run. The delta memo is per left tuple and depends
	// only on the left join cell; the right side is pinned by a content
	// fingerprint of its join column, so the memo survives re-evaluations of
	// either side that leave the join-relevant cells intact.
	op := tupleOp[joinOut]{site: "pfunc", cols: []int{li}, right: rt, rightCols: []int{ri}, minChunk: minChunkProbe}
	op.open = func(batch *statBatch) decideFn[joinOut] {
		c := &simChunk{simProbe: p, batch: batch, stamp: make([]uint32, len(rt.Tuples)),
			sc: simScratch{docs: docCursor{memo: ctx.Env.FeatureMemo}}}
		return func(ltp compact.Tuple, old *joinOut) (joinOut, bool, bool, error) {
			if old != nil {
				return *old, true, false, nil
			}
			ms, fb, qed := c.probe(ltp)
			return joinOut{sim: ms, fallbacks: fb}, false, qed, nil
		}
	}
	// emit assembles the output tuple of each matching pair from the current
	// pair of tuples, carrying refreshed non-join cells, with shallow cell
	// copies (cells are immutable once built); a left tuple's rows take
	// their cells from one slab.
	op.count = func(o *joinOut) int { return len(o.sim) }
	w := len(n.cols)
	op.emit = func(dst []compact.Tuple, ltp compact.Tuple, o *joinOut) []compact.Tuple {
		slab := make([]compact.Cell, len(o.sim)*w)
		for k, m := range o.sim {
			rtp := rt.Tuples[m.j]
			cells := slab[k*w : (k+1)*w : (k+1)*w]
			copy(cells[copy(cells, ltp.Cells):], rtp.Cells)
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
	return tupleLoop(ctx, ev, dx, lt, n.cols, op)
}
