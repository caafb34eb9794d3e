// Per-document record tables. What a span means — whether it verifies under
// a constraint, what it refines to, which typed value a comparison reads off
// it — is a pure function of (document, span, feature, parameter): documents
// are immutable after construction and Feature implementations are stateless
// by contract. The engine asks the same questions of the same spans across
// tuples, across operators of one plan, and — most expensively — across
// every trial execution of the assistant's question-simulation fan-out, so
// what answers them is kept with the document: one table per document
// handle, found once per tuple (Memo.Doc).
//
// What a constraint f = v means is resolved once per memo, when a plan is
// compiled: Memo.Intern hands out one handle per (feature, value), holding
// the feature, a built-in's parsed span language (lang.go) and whether the
// pair is hereditary. The tables take the handle. A built-in constraint's
// record is its language's regions over the page, one sorted list per
// (document, handle) built on first use; Verify(s) and Refine(s)
// binary-search it for the regions touching s and derive their answer from
// those as the feature does from all of them. A feature with no language
// answers for itself. Comparison operands and similarity token records
// (tokens.go) are kept per (span, mode).
//
// The lifetime is the document handle's: entries never go stale, a
// superseded handle's table is dropped with it (DropDocs), and any table
// may be forgotten at any time — a table rebuilds in microseconds. Under a
// memory budget the least recently used go first (Tick, Evict).
package feature

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"iflex/internal/similarity"
	"iflex/internal/text"
)

// consKey names a (feature, value) pair: a memo tells features apart by
// name, as a Registry does.
type consKey struct{ feat, value string }

// Cons is a domain constraint's (feature, value) pair f = v interned in one
// Memo: everything applying it needs, resolved once. Handles compare by
// pointer and are valid only with the memo that made them.
type Cons struct {
	Feature Feature
	Value   string
	// Hereditary: each token-aligned sub-span t of a span that passed f = v
	// has Verify(t) and Refine(t) = [contain(t)] (lang.go).
	Hereditary bool
	// Declared: f is a built-in that takes v, and lang is its language, so
	// every span Refine returns is token-aligned.
	Declared bool
	// SelfStable: every exact span Refine returns verifies, and every
	// contain span x it returns refines to exactly [contain(x)] (lang.go).
	SelfStable bool
	id         uint32 // interning order in the memo
	memo       *Memo
	lang       lang
}

// valueKey addresses a Values record inside one document's table. Offsets
// are kept in 32 bits: pages are far smaller.
type valueKey struct {
	start, end uint32
	contain    bool
}

// regionList is a constraint's record: where its language's regions over
// the page lie in the table's regions.
type regionList struct{ id, lo, hi uint32 }

// Accounting, in bytes: a table; a region list and a region as they are
// laid out; and estimates for the Values map's header, one of its slots
// (key, value and bucket overhead at the usual load) and what it points to.
const (
	docRecordsBytes  = int64(unsafe.Sizeof(DocRecords{}))
	regionListBytes  = int64(unsafe.Sizeof(regionList{}))
	regionBytes      = int64(unsafe.Sizeof(byteRange{}))
	valuesMapBytes   = 48
	valueSlotBytes   = 48
	valueRecordBytes = 32
)

// Memo owns the record tables of the documents one Env evaluates over and
// the handles of the constraints asked about them. The zero value is not
// usable; construct with NewMemo. Safe for concurrent use.
type Memo struct {
	// mu guards cons and docs; the tables lock themselves.
	mu    sync.RWMutex
	cons  map[consKey]*Cons
	docs  map[*text.Document]*DocRecords
	made  uint32 // tables made so far, under mu: Evict's tie-break
	bytes atomic.Int64
	// clock orders the tables by last use: Tick advances it, and Doc stamps
	// the table it hands out with its reading. A memo nobody ticks (no
	// budget) never writes a stamp.
	clock atomic.Uint64
	// vocab interns every similarity token the tables hold (tokens.go); it
	// outlives evictions, so token ids stay comparable across tables.
	vocab *similarity.Vocab
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{cons: map[consKey]*Cons{}, docs: map[*text.Document]*DocRecords{}, vocab: similarity.NewVocab()}
}

// Vocab is the vocabulary of the token ids the tables hold.
func (m *Memo) Vocab() *similarity.Vocab { return m.vocab }

// Intern returns the handle of f = v, made on first use (resolve). It is
// resolved outside the lock, as it may ask the feature: callers racing on a
// new pair each resolve it and keep the first handle published. Handles
// are never dropped, so one made before an eviction stays valid after it.
func (m *Memo) Intern(f Feature, v string) *Cons {
	k := consKey{f.Name(), v}
	m.mu.RLock()
	c := m.cons[k]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	c = resolve(f, v)
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev := m.cons[k]; prev != nil {
		return prev
	}
	c.id, c.memo = uint32(len(m.cons)), m
	m.cons[k] = c
	return c
}

// Doc returns the record table of a document, made on first use. Documents
// are told apart by handle, not by id: two corpora loaded into one process
// never alias, and a page a store has rewritten is a new document.
func (m *Memo) Doc(d *text.Document) *DocRecords {
	m.mu.RLock()
	t := m.docs[d]
	m.mu.RUnlock()
	if t == nil {
		m.mu.Lock()
		if t = m.docs[d]; t == nil {
			m.made++
			t = &DocRecords{memo: m, doc: d, seq: m.made, bytes: docRecordsBytes}
			m.docs[d] = t
			m.bytes.Add(docRecordsBytes)
		}
		m.mu.Unlock()
	}
	if now := m.clock.Load(); t.used.Load() != now {
		t.used.Store(now)
	}
	return t
}

// Bytes estimates the resident size of every table, counted as records are
// published.
func (m *Memo) Bytes() int64 { return m.bytes.Load() }

// Tick advances the memo's clock: every table Doc hands out after it counts
// as more recently used than every table handed out only before it.
func (m *Memo) Tick() { m.clock.Add(1) }

// Evict forgets tables, least recently used first and, among tables last
// used at one tick, the oldest first, until need bytes are freed or none is
// left. It returns the bytes freed.
func (m *Memo) Evict(need int64) (freed int64) {
	type aged struct {
		used uint64
		seq  uint32
		t    *DocRecords
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	byAge := make([]aged, 0, len(m.docs))
	for _, t := range m.docs {
		byAge = append(byAge, aged{t.used.Load(), t.seq, t})
	}
	slices.SortFunc(byAge, func(a, b aged) int { return cmp.Or(cmp.Compare(a.used, b.used), cmp.Compare(a.seq, b.seq)) })
	for _, a := range byAge {
		if freed >= need {
			break
		}
		freed += m.forgetLocked(a.t)
	}
	return freed
}

// forgetLocked drops one table and returns its bytes; callers hold m.mu.
// Evaluations in flight finish against the table they hold, and what they
// publish there is no longer charged to the memo.
func (m *Memo) forgetLocked(t *DocRecords) int64 {
	delete(m.docs, t.doc)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gone = true
	m.bytes.Add(-t.bytes)
	return t.bytes
}

// DropDocs forgets the tables of the documents whose id is in ids — every
// handle of that id, which is how a corpus mutation releases the pages it
// superseded — and reports how many it dropped.
func (m *Memo) DropDocs(ids map[string]bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for d, t := range m.docs {
		if ids[d.ID()] {
			m.forgetLocked(t)
			n++
		}
	}
	return n
}

// Verify answers f(s) = v through the table of s's document. hit reports
// whether the table held the record. Errors are never kept (they indicate a
// malformed parameter, and the caller surfaces them immediately).
func (m *Memo) Verify(f Feature, s text.Span, v string) (ok, hit bool, err error) {
	return m.Doc(s.Doc()).Verify(m.Intern(f, v), s)
}

// Refine computes the refinement of s under f = v through the table of s's
// document, in a slice of its own.
func (m *Memo) Refine(f Feature, s text.Span, v string) (as []text.Assignment, hit bool, err error) {
	return m.Doc(s.Doc()).Refine(m.Intern(f, v), s, nil)
}

// DocRecords is one document's record table: the region list of each
// built-in constraint asked about it, and the typed values and similarity
// tokens of assignments over it. Every span handed to it must lie in that
// document, every handle come from the Memo that made the table.
type DocRecords struct {
	memo *Memo
	doc  *text.Document
	used atomic.Uint64 // the memo's clock when Doc last handed the table out
	// mu guards the fields below but seq; a list is built under it, a
	// Values or token record outside it: two callers that miss on one at
	// once both build, and what they publish is charged once.
	mu      sync.Mutex
	lists   []regionList         // sorted by handle id
	regions []byteRange          // every list's regions, one list after another
	values  map[valueKey][]Value // made on first use
	sim     *simRecords          // made on first use (tokens.go)
	bytes   int64
	seq     uint32 // creation order in the memo
	gone    bool   // the memo forgot the table
}

// charge counts a publication; callers hold t.mu.
func (t *DocRecords) charge(n int64) {
	t.bytes += n
	if !t.gone {
		t.memo.bytes.Add(n)
	}
}

// Verify is Memo.Verify with the table and the handle in hand. A feature
// that declares no language for the value — one a deployment registered,
// or a value it rejects — answers for itself.
func (t *DocRecords) Verify(c *Cons, s text.Span) (ok, hit bool, err error) {
	if !c.Declared {
		ok, err = c.Feature.Verify(s, c.Value)
		return ok, false, err
	}
	rs, hit := t.list(c)
	return c.lang.verify(c.lang.near(rs, s), s), hit, nil
}

// Refine is Memo.Refine with the table and the handle in hand: it appends
// the refinement of s to out.
func (t *DocRecords) Refine(c *Cons, s text.Span, out []text.Assignment) (as []text.Assignment, hit bool, err error) {
	if !c.Declared {
		as, err = c.Feature.Refine(s, c.Value)
		return append(out, as...), false, err
	}
	rs, hit := t.list(c)
	return c.lang.refine(out, c.lang.near(rs, s), s), hit, nil
}

// list returns the regions of c's language over the page, built on first
// use, and whether the table held them.
func (t *DocRecords) list(c *Cons) ([]byteRange, bool) {
	if c.memo != t.memo {
		panic("feature: a constraint handle used with another memo's record table")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, hit := slices.BinarySearchFunc(t.lists, c.id, func(e regionList, id uint32) int { return cmp.Compare(e.id, id) })
	if !hit {
		n, lists, regions := len(t.regions), cap(t.lists), cap(t.regions)
		t.regions = c.lang.list(t.regions, t.doc)
		if t.lists == nil { // a session asks about a page under a dozen or two constraints
			t.lists = make([]regionList, 0, 16)
		}
		t.lists = slices.Insert(t.lists, i, regionList{c.id, uint32(n), uint32(len(t.regions))})
		t.charge(int64(cap(t.lists)-lists)*regionListBytes + int64(cap(t.regions)-regions)*regionBytes)
	}
	e := t.lists[i]
	return t.regions[e.lo:e.hi], hit
}

// Value is a span as a comparison reads it: a number when its text parses
// as one, NULL when it is empty, its whitespace-normalised text otherwise.
// The flags sit together so a record takes 32 bytes a value.
type Value struct {
	Num    float64
	Str    string
	IsNum  bool
	IsNull bool
}

// Values returns the typed values of V(a) in a.Values order, parsed once
// per (span, mode) for the life of the table. parsed is the number of
// values this call published and 0 when the record was there — or when
// another caller published it first, so summed over all callers it does not
// depend on scheduling. The record is shared and must not be mutated. Only a
// completed build publishes: a page that fails to load panics out of the
// build and leaves nothing behind. Strings are the record's own, never
// slices of the page, so a released lazy document stays released.
func (t *DocRecords) Values(a text.Assignment) (vals []Value, parsed int) {
	k := keyOf(a)
	t.mu.Lock()
	vals, ok := t.values[k]
	t.mu.Unlock()
	if ok {
		return vals, 0
	}
	vals = buildValues(a)
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, dup := t.values[k]; dup {
		return prev, 0
	}
	if t.values == nil {
		t.values = map[valueKey][]Value{}
		t.charge(valuesMapBytes)
	}
	t.values[k] = vals
	t.charge(valueSlotBytes + valueRecordBytes*int64(len(vals)) + int64(a.Span.Len()))
	return vals, len(vals)
}

// buildValues parses every value of an assignment. Text that needs no
// normalising comes back from NormText as a slice of the page; such values
// are cut from one copy of the assignment's text instead, made when the
// first of them turns up.
func buildValues(a text.Assignment) []Value {
	vals := make([]Value, 0, a.NumValues())
	var own string
	a.Values(func(s text.Span) bool {
		if n, ok := s.Numeric(); ok {
			vals = append(vals, Value{IsNum: true, Num: n})
			return true
		}
		t := s.NormText()
		switch {
		case t == "":
			vals = append(vals, Value{IsNull: true})
			return true
		case t == s.Text():
			if own == "" {
				own = strings.Clone(a.Span.Text())
			}
			t = own[s.Start()-a.Span.Start() : s.End()-a.Span.Start()]
		}
		vals = append(vals, Value{Str: t})
		return true
	})
	return vals
}
