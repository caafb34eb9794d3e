package engine

import "sync/atomic"

// This file implements corpus-delta invalidation: the engine-level half
// of live-corpus incremental evaluation. A mutable document store
// reports which documents a committed mutation added, updated, or
// removed (store.Delta); ApplyCorpusDelta translates that into cache
// state so the next evaluation of the same program recomputes only what
// the mutation can have affected.
//
// The soundness argument is deliberately coarse. After any non-empty
// delta, NO cached result table is authoritative — not even one whose
// tuples reference only unchanged documents: an added document can
// contribute new tuples to any node, and a projection can have dropped
// the very column that carried a removed document's span, so the
// "does this table touch a changed document" test under-approximates
// staleness. ApplyCorpusDelta therefore marks every cached result that
// carries a per-tuple memo stale — no lookup sees it again but the next
// evaluation of its own key, which takes the memo as its prior — and drops
// everything that cannot be replayed: memo-less tables, blocking indexes
// and degraded tables. A stale entry whose node is never evaluated again
// (a trial's) stays in the LRU and the byte count, and goes when
// CacheBudget says so.
//
// What keeps the re-evaluation cheap is document-handle identity:
// unchanged documents keep their *text.Document pointers across a store
// mutation, while updated documents get fresh handles. Per-tuple memos
// compare spans by document pointer (text.Span.Equal), so a memoised
// outcome replays if and only if its input tuple is sourced entirely
// from unchanged documents — exactly the invalidation granularity the
// delta calls for, enforced structurally rather than by bookkeeping.

// CorpusDelta describes one committed corpus mutation: document ids
// added to, updated in place in, and removed from the corpus. It
// mirrors store.Delta (the engine does not import the store).
type CorpusDelta struct {
	Added   []string
	Updated []string
	Removed []string
}

// Empty reports whether the delta changes nothing.
func (d *CorpusDelta) Empty() bool {
	return d == nil || len(d.Added)+len(d.Updated)+len(d.Removed) == 0
}

// ApplyCorpusDelta invalidates the context for a committed corpus
// mutation. Every cached result with a memo is marked stale, for replay by
// the next evaluation of its node; memo-less tables, blocking indexes and
// degraded tables are dropped (never replayable); the record tables of
// changed documents are dropped (the handles they hang off were superseded
// or removed); and changed documents
// are released from quarantine (their content was superseded or removed,
// so the fault that barred them no longer describes the corpus).
//
// Like SetDocFilter, it may only be called while no evaluations are in
// flight. The caller is responsible for having the Env's document
// tables reflect the mutated corpus (store.DiskStore.Docs() after
// Commit) before the next evaluation.
func (ctx *Context) ApplyCorpusDelta(d *CorpusDelta) {
	if d.Empty() {
		return
	}
	statAdd(&ctx.Stats.CorpusDeltas, 1)
	changed := docSet{}
	for _, ids := range [][]string{d.Added, d.Updated, d.Removed} {
		for _, id := range ids {
			changed[id] = true
		}
	}

	ctx.mu.Lock()
	// Entries left stale by an earlier delta stay: replay is keyed by
	// document-handle identity, so a twice-displaced memo is still exactly
	// as valid for its unchanged tuples (watch mode may commit several
	// deltas between evaluations).
	for _, e := range ctx.cache {
		if e.aux != nil && e.table.Degraded == nil {
			e.stale = true
		} else {
			ctx.dropLocked(e)
		}
	}
	ctx.mu.Unlock()

	// The record tables of the handles the mutation superseded go with
	// them; nothing evaluates over those pages again.
	ctx.Env.FeatureMemo.DropDocs(changed)
	atomic.StoreInt64(&ctx.Stats.DocRecordBytes, ctx.Env.FeatureMemo.Bytes())

	ctx.releaseQuarantined(changed)
}
