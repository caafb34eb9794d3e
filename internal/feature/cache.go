// Per-document record tables. What a span means — whether it verifies under
// a constraint, what it refines to, which typed value a comparison reads off
// it — is a pure function of (document, span, feature, parameter): documents
// are immutable after construction and Feature implementations are stateless
// by contract. The engine asks the same questions of the same spans across
// tuples, across operators of one plan, and — most expensively — across
// every trial execution of the assistant's question-simulation fan-out, so
// what answers them is kept with the document: one table per document
// handle, found once per tuple (Memo.Doc), a constraint's (feature,
// parameter) pair interned once (Memo.Intern).
//
// A built-in constraint's record is its span language's regions over the
// page (lang.go), one sorted list per (document, constraint) built on first
// use. Verify(s) and Refine(s) binary-search it for the regions touching s
// and derive their answer from those as the feature does from all of them.
// Comparison operands are kept per (span, mode).
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

	"iflex/internal/text"
)

// ConsID names a (feature, parameter) pair interned in one Memo.
type ConsID uint32

type consKey struct{ feat, param string }

// valueKey addresses a Values record inside one document's table. Offsets
// are kept in 32 bits: pages are far smaller.
type valueKey struct {
	start, end uint32
	contain    bool
}

// regionList is a constraint's record: its language and where its regions
// over the page lie in the table's regions.
type regionList struct {
	id     ConsID
	lo, hi uint32
	l      *lang
}

// Accounting, in bytes: a table with its values map header; a region list
// and a region as they are laid out; and estimates for one Values map slot
// (key, value and bucket overhead at the usual load) and what it points to.
const (
	docRecordsBytes  = int64(unsafe.Sizeof(DocRecords{})) + 48
	regionListBytes  = int64(unsafe.Sizeof(regionList{}))
	regionBytes      = int64(unsafe.Sizeof(byteRange{}))
	valueSlotBytes   = 48
	valueRecordBytes = 32
)

// Memo owns the record tables of the documents one Env evaluates over. The
// zero value is not usable; construct with NewMemo. Safe for concurrent use.
type Memo struct {
	// mu guards cons and docs; the tables lock themselves, and take langMu
	// (never the other way round) for the built-ins' languages, parsed once.
	mu     sync.RWMutex
	cons   map[consKey]ConsID
	docs   map[*text.Document]*DocRecords
	langMu sync.Mutex
	langs  map[ConsID]*lang
	made   uint64 // tables made so far, under mu: Evict's tie-break
	bytes  atomic.Int64
	// clock orders the tables by last use: Tick advances it, and Doc stamps
	// the table it hands out with its reading. A memo nobody ticks (no
	// budget) never writes a stamp.
	clock atomic.Uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{cons: map[consKey]ConsID{}, docs: map[*text.Document]*DocRecords{}, langs: map[ConsID]*lang{}}
}

// Intern returns the id of a (feature name, parameter) pair. Ids are never
// reused or dropped, so one resolved before an eviction stays valid after
// it.
func (m *Memo) Intern(feat, param string) ConsID {
	k := consKey{feat, param}
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.cons[k]
	if !ok {
		id = ConsID(len(m.cons))
		m.cons[k] = id
	}
	return id
}

// lang returns the language of b = v, id's pair, or nil when b rejects v.
func (m *Memo) lang(b *builtin, id ConsID, v string) *lang {
	m.langMu.Lock()
	defer m.langMu.Unlock()
	if m.langs[id] == nil {
		l, err := b.lang(v)
		if err != nil {
			return nil
		}
		m.langs[id] = &l
	}
	return m.langs[id]
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
			t = &DocRecords{memo: m, doc: d, seq: m.made, bytes: docRecordsBytes, values: map[valueKey][]Value{}}
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
		used, seq uint64
		t         *DocRecords
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
	return m.Doc(s.Doc()).Verify(f, m.Intern(f.Name(), v), s, v)
}

// Refine computes the refinement of s under f = v through the table of s's
// document, in a slice of its own.
func (m *Memo) Refine(f Feature, s text.Span, v string) (as []text.Assignment, hit bool, err error) {
	return m.Doc(s.Doc()).Refine(f, m.Intern(f.Name(), v), s, v, nil)
}

// DocRecords is one document's record table: the region list of each
// built-in constraint asked about it, and the typed values of assignments
// over it. Every span handed to it must lie in that document, every id come
// from the Memo that made the table.
type DocRecords struct {
	memo *Memo
	doc  *text.Document
	seq  uint64        // creation order in the memo
	used atomic.Uint64 // the memo's clock when Doc last handed the table out
	// mu guards the fields below; a list is built under it, a Values record
	// outside it: two callers that miss on one at once both build, and what
	// they publish is charged once.
	mu      sync.Mutex
	lists   []regionList // sorted by id
	regions []byteRange  // every list's regions, one list after another
	values  map[valueKey][]Value
	bytes   int64
	gone    bool // the memo forgot the table
}

// charge counts a publication; callers hold t.mu.
func (t *DocRecords) charge(n int64) {
	t.bytes += n
	if !t.gone {
		t.memo.bytes.Add(n)
	}
}

// Verify is Memo.Verify with the table and the constraint id in hand; id
// interns (f.Name(), v). A feature that declares no language for v — one a
// deployment registered, or a value it rejects — answers for itself.
func (t *DocRecords) Verify(f Feature, id ConsID, s text.Span, v string) (ok, hit bool, err error) {
	if l, rs, hit := t.list(f, id, v); l != nil {
		return l.verify(l.near(rs, s), s), hit, nil
	}
	ok, err = f.Verify(s, v)
	return ok, false, err
}

// Refine is Memo.Refine with the table and the constraint id in hand: it
// appends the refinement of s to out.
func (t *DocRecords) Refine(f Feature, id ConsID, s text.Span, v string, out []text.Assignment) (as []text.Assignment, hit bool, err error) {
	if l, rs, hit := t.list(f, id, v); l != nil {
		return l.refine(out, l.near(rs, s), s), hit, nil
	}
	as, err = f.Refine(s, v)
	return append(out, as...), false, err
}

// list returns the language of f = v and its regions over the page, built
// on first use, and whether the table held them; no language when f
// declares none for v.
func (t *DocRecords) list(f Feature, id ConsID, v string) (*lang, []byteRange, bool) {
	b, declared := f.(*builtin)
	if !declared {
		return nil, nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, hit := slices.BinarySearchFunc(t.lists, id, func(e regionList, id ConsID) int { return cmp.Compare(e.id, id) })
	if !hit {
		l := t.memo.lang(b, id, v)
		if l == nil {
			return nil, nil, false
		}
		n, lists, regions := len(t.regions), cap(t.lists), cap(t.regions)
		t.regions = l.list(t.regions, t.doc)
		if t.lists == nil { // a session asks about a page under a dozen or two constraints
			t.lists = make([]regionList, 0, 16)
		}
		t.lists = slices.Insert(t.lists, i, regionList{id, uint32(n), uint32(len(t.regions)), l})
		t.charge(int64(cap(t.lists)-lists)*regionListBytes + int64(cap(t.regions)-regions)*regionBytes)
	}
	e := t.lists[i]
	return e.l, t.regions[e.lo:e.hi], hit
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
	k := valueKey{uint32(a.Span.Start()), uint32(a.Span.End()), a.Mode == text.Contain}
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
