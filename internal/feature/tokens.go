package feature

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"iflex/internal/similarity"
	"iflex/internal/text"
)

// TokenIndex answers a whole page's similarity tokens from an index built
// at ingest (a document store) without paging the page in: the ordered
// similarity.Tokens of its text, exactly, as ids in the index's own
// vocabulary. A false ok, or a nil list, leaves the page to be tokenised.
type TokenIndex interface {
	// TokenIDs returns d's token ids in text order, in a slice the caller
	// owns.
	TokenIDs(d *text.Document) ([]uint32, bool)
	// Token returns the token of an id TokenIDs returned. An id keeps its
	// token for the life of the index.
	Token(id uint32) string
}

// indexIDs translates one TokenIndex's token ids to the memo's: ids[i] is
// the memo id of index id i plus one, 0 until the id is first seen. It
// belongs to the index it was built from; a different index starts anew.
type indexIDs struct {
	mu  sync.Mutex
	idx TokenIndex
	ids []uint32
}

// simRecords is what a record table keeps for similarity joins: the
// page's tokens and, sorted by (span, mode), each assignment's token
// records. A page is asked about a handful of spans, so a sorted slice
// holds them in a fraction of a map's room.
type simRecords struct {
	page    pageTokens
	entries []tokenEntry
}

// tokenEntry is an assignment as a similarity join reads it: the token
// record of each of its values, in a.Values order, and the blocking set of
// its span, each nil until built.
type tokenEntry struct {
	key   valueKey
	recs  []similarity.Record
	block []uint32
}

// pageTokens is a page's similarity tokens — the ASCII alphanumeric runs
// similarity.Tokens reads — as ids in the memo's vocabulary, in text order:
// token i lies at bounds[2i]:bounds[2i+1]. bounds is nil until built.
type pageTokens struct {
	ids, bounds []uint32
}

// span returns the ids of the tokens inside s, a sub-slice of the page's.
// ok is false when a token straddles a bound of s — a mark cut can end a
// span inside one run, as in "<b>Bask</b>tall" — and s's text then
// tokenises differently.
func (p *pageTokens) span(s text.Span) (ids []uint32, ok bool) {
	start, end := uint32(s.Start()), uint32(s.End())
	lo := sort.Search(len(p.ids), func(i int) bool { return p.bounds[2*i+1] > start })
	hi := lo + sort.Search(len(p.ids)-lo, func(i int) bool { return p.bounds[2*(lo+i)] >= end })
	if lo < hi && (p.bounds[2*lo] < start || p.bounds[2*hi-1] > end) {
		return nil, false
	}
	return p.ids[lo:hi:hi], true
}

// Accounting of token records, in bytes: a table's similarity part, an
// entry and a record header.
const (
	simRecordsBytes = int64(unsafe.Sizeof(simRecords{}))
	tokenEntryBytes = int64(unsafe.Sizeof(tokenEntry{}))
	recordBytes     = int64(unsafe.Sizeof(similarity.Record{}))
)

// entryLocked returns k's entry, inserting an empty one when there is none
// (and the table's similarity part on first use); callers hold t.mu and
// drop the pointer with it.
func (t *DocRecords) entryLocked(k valueKey) *tokenEntry {
	if t.sim == nil {
		t.sim = &simRecords{}
		t.charge(simRecordsBytes)
	}
	es := t.sim.entries
	i, ok := slices.BinarySearchFunc(es, k, func(e tokenEntry, k valueKey) int {
		return cmp.Or(cmp.Compare(e.key.start, k.start), cmp.Compare(e.key.end, k.end), cmp.Compare(b2i(e.key.contain), b2i(k.contain)))
	})
	if !ok {
		t.sim.entries = slices.Insert(es, i, tokenEntry{key: k})
		t.charge(int64(cap(t.sim.entries)-cap(es)) * tokenEntryBytes)
	}
	return &t.sim.entries[i]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// IndexRecords returns the token record of an exact whole-page assignment
// from idx, built on every call without touching the page or its table:
// the index holds the page's tokens already, and a record table per stored
// page would only add to the heap. The index's ids map to the memo's
// through a table the memo keeps, so a token is interned once, when first
// seen, and the article rule applies to memo ids. ok is false for any
// other assignment, or when idx cannot answer.
func (m *Memo) IndexRecords(a text.Assignment, idx TokenIndex) ([]similarity.Record, bool) {
	d := a.Span.Doc()
	if idx == nil || a.Mode != text.Exact || a.Span.Start() != 0 || a.Span.End() != d.Len() {
		return nil, false
	}
	ids, ok := idx.TokenIDs(d)
	if !ok || ids == nil {
		return nil, false
	}
	m.fromIndex(idx, ids)
	return []similarity.Record{similarity.NewRecord(similarity.Normalized(ids))}, true
}

// fromIndex rewrites ids, token ids of idx, in place as memo ids.
func (m *Memo) fromIndex(idx TokenIndex, ids []uint32) {
	x := &m.index
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.idx != idx {
		x.idx, x.ids = idx, nil
	}
	for i, id := range ids {
		if int(id) >= len(x.ids) {
			x.ids = append(x.ids, make([]uint32, int(id)+1-len(x.ids))...)
		}
		if x.ids[id] == 0 {
			x.ids[id] = m.vocab.Intern(idx.Token(id)) + 1
		}
		ids[i] = x.ids[id] - 1
	}
}

// Records returns the token record of each value of a, in a.Values order,
// built once per (span, mode) for the life of the table. A value's ordered
// ids are a sub-slice of the page's; only a whole-page value, and one whose
// bounds split a token, are tokenised on their own. The records are shared
// and must not be mutated.
func (t *DocRecords) Records(a text.Assignment) []similarity.Record {
	k := keyOf(a)
	t.mu.Lock()
	recs := t.entryLocked(k).recs
	t.mu.Unlock()
	if recs != nil {
		return recs
	}
	recs = make([]similarity.Record, 0, a.NumValues())
	bytes, n := int64(0), 0
	a.Values(func(s text.Span) bool {
		ord, own := t.valueIDs(s)
		if own {
			bytes += 4 * int64(cap(ord))
		}
		recs = append(recs, similarity.Record{Ord: ord})
		n += len(ord)
		return true
	})
	sets := make([]uint32, 0, n)
	for i := range recs {
		m := len(sets)
		sets = similarity.AppendSet(sets, recs[i].Ord)
		recs[i].Set = sets[m:len(sets):len(sets)]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entryLocked(k); e.recs == nil {
		e.recs = recs
		t.charge(bytes + recordBytes*int64(cap(recs)) + 4*int64(cap(sets)))
	} else {
		recs = e.recs
	}
	return recs
}

// Block returns the sorted distinct ids of the similarity tokens of a's
// span, built once per (span, mode) for the life of the table. Shared:
// callers must not mutate it.
func (t *DocRecords) Block(a text.Assignment) []uint32 {
	k := keyOf(a)
	t.mu.Lock()
	block := t.entryLocked(k).block
	t.mu.Unlock()
	if block != nil {
		return block
	}
	var ids []uint32
	ok := false
	if !t.whole(a.Span) {
		ids, ok = t.pageTokens().span(a.Span)
	}
	if !ok {
		txt := a.Span.Text()
		ids = t.memo.vocab.AppendTokens(make([]uint32, 0, similarity.CountTokens(txt)), txt)
	}
	block = similarity.AppendSet(make([]uint32, 0, len(ids)), ids)
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entryLocked(k); e.block == nil {
		e.block = block
		t.charge(4 * int64(cap(block)))
	} else {
		block = e.block
	}
	return block
}

func keyOf(a text.Assignment) valueKey {
	return valueKey{uint32(a.Span.Start()), uint32(a.Span.End()), a.Mode == text.Contain}
}

// whole reports whether s covers the page.
func (t *DocRecords) whole(s text.Span) bool { return s.Start() == 0 && s.End() == t.doc.Len() }

// valueIDs returns the normalised token ids of one value, and whether they
// are its own rather than the page's. A whole-page value never builds the
// page's list.
func (t *DocRecords) valueIDs(s text.Span) (ord []uint32, own bool) {
	if !t.whole(s) {
		if ids, ok := t.pageTokens().span(s); ok {
			return similarity.Normalized(ids), false
		}
	}
	txt := s.Text()
	return t.memo.vocab.AppendNormalized(make([]uint32, 0, similarity.CountTokens(txt)), txt), true
}

// pageTokens returns the page's similarity tokens, built on first use by a
// caller that has made the table's similarity part.
func (t *DocRecords) pageTokens() *pageTokens {
	t.mu.Lock()
	p := &t.sim.page
	built := p.bounds != nil
	t.mu.Unlock()
	if built {
		return p
	}
	txt := t.doc.Text()
	n := similarity.CountTokens(txt)
	buf := make([]uint32, 3*n) // ids, then bounds: one allocation
	ids, bounds := t.memo.vocab.AppendTokenBounds(buf[:0:n], buf[n:n:3*n], txt)
	t.mu.Lock()
	defer t.mu.Unlock()
	if p.bounds == nil {
		p.ids, p.bounds = ids, bounds
		t.charge(4 * int64(len(buf)))
	}
	return p
}
