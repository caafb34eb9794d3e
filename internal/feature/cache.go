// Per-document record tables. What a span means — whether it verifies under
// a constraint, what it refines to, which typed value a comparison reads off
// it — is a pure function of (document, span, feature, parameter): documents
// are immutable after construction and Feature implementations are stateless
// by contract. The engine asks the same questions of the same spans across
// tuples, across operators of one plan, and — most expensively — across
// every trial execution of the assistant's question-simulation fan-out, so
// the answers are kept with the document they were read off: one table per
// document handle, keyed by small integers. A caller finds a tuple's table
// once (Memo.Doc) and interns a constraint's (feature, parameter) pair once
// (Memo.Intern); every call after that is one lookup under the document's
// own lock, and two workers contend only when they sit on the same page.
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

	"iflex/internal/text"
)

// ConsID names a (feature, parameter) pair interned in one Memo.
type ConsID uint32

type consKey struct{ feat, param string }

// spanKey and valueKey address a record inside one document's table.
// Offsets are kept in 32 bits: pages are far smaller, and the key is what a
// table spends most of its bytes on.
type spanKey struct {
	cons       ConsID
	start, end uint32
}

type valueKey struct {
	start, end uint32
	contain    bool
}

// Accounting estimates, in bytes: a table with its three map headers, and
// one map slot of each kind (key, value and bucket overhead at the usual
// load). Slices and strings a slot points to are added per element.
const (
	docRecordsBytes  = 208
	verifySlotBytes  = 20
	refineSlotBytes  = 48
	valueSlotBytes   = 48
	assignmentBytes  = 32
	valueRecordBytes = 32
)

// Memo owns the record tables of the documents one Env evaluates over. The
// zero value is not usable; construct with NewMemo. Safe for concurrent use.
type Memo struct {
	// mu guards cons and docs; the tables lock themselves.
	mu    sync.RWMutex
	cons  map[consKey]ConsID
	docs  map[*text.Document]*DocRecords
	made  uint64 // tables made so far, under mu: Evict's tie-break
	bytes atomic.Int64
	// clock orders the tables by last use: Tick advances it, and Doc stamps
	// the table it hands out with its reading. A memo nobody ticks (no
	// budget) never writes a stamp.
	clock atomic.Uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{cons: map[consKey]ConsID{}, docs: map[*text.Document]*DocRecords{}}
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
			t = &DocRecords{memo: m, doc: d, seq: m.made, bytes: docRecordsBytes, verify: map[spanKey]bool{},
				refine: map[spanKey][]text.Assignment{}, values: map[valueKey][]Value{}}
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
func (m *Memo) Bytes() int64 {
	return m.bytes.Load()
}

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
// whether the result came from the table. Errors are never kept (they
// indicate a malformed parameter, and the caller surfaces them immediately).
func (m *Memo) Verify(f Feature, s text.Span, v string) (ok, hit bool, err error) {
	return m.Doc(s.Doc()).Verify(f, m.Intern(f.Name(), v), s, v)
}

// Refine computes the refinement of s under f = v through the table of s's
// document. The returned slice is shared across callers and must not be
// mutated. hit reports whether the result came from the table.
func (m *Memo) Refine(f Feature, s text.Span, v string) (as []text.Assignment, hit bool, err error) {
	return m.Doc(s.Doc()).Refine(f, m.Intern(f.Name(), v), s, v)
}

// DocRecords is one document's record table: Verify and Refine results per
// (constraint id, span), and the typed values of assignments over the
// document. Every span handed to it must lie in that document, and every id
// must come from the Memo that made the table.
type DocRecords struct {
	memo *Memo
	doc  *text.Document
	seq  uint64        // creation order in the memo
	used atomic.Uint64 // the memo's clock when Doc last handed the table out
	// mu guards the maps, bytes and gone. It is not held while a feature
	// runs or a record is built: two callers that miss on one key at once
	// both compute, and what they publish is charged once.
	mu     sync.Mutex
	verify map[spanKey]bool
	refine map[spanKey][]text.Assignment
	values map[valueKey][]Value
	bytes  int64
	gone   bool // the memo forgot the table
}

// charge counts a publication; callers hold t.mu.
func (t *DocRecords) charge(n int64) {
	t.bytes += n
	if !t.gone {
		t.memo.bytes.Add(n)
	}
}

// Verify is Memo.Verify with the table and the constraint id in hand; id
// interns (f.Name(), v).
func (t *DocRecords) Verify(f Feature, id ConsID, s text.Span, v string) (ok, hit bool, err error) {
	k := spanKey{id, uint32(s.Start()), uint32(s.End())}
	t.mu.Lock()
	ok, hit = t.verify[k]
	t.mu.Unlock()
	if hit {
		return ok, true, nil
	}
	if ok, err = f.Verify(s, v); err != nil {
		return false, false, err
	}
	t.mu.Lock()
	n := len(t.verify)
	if t.verify[k] = ok; len(t.verify) > n {
		t.charge(verifySlotBytes)
	}
	t.mu.Unlock()
	return ok, false, nil
}

// Refine is Memo.Refine with the table and the constraint id in hand.
func (t *DocRecords) Refine(f Feature, id ConsID, s text.Span, v string) (as []text.Assignment, hit bool, err error) {
	k := spanKey{id, uint32(s.Start()), uint32(s.End())}
	t.mu.Lock()
	as, hit = t.refine[k]
	t.mu.Unlock()
	if hit {
		return as, true, nil
	}
	if as, err = f.Refine(s, v); err != nil {
		return nil, false, err
	}
	t.mu.Lock()
	n := len(t.refine)
	if t.refine[k] = as; len(t.refine) > n {
		t.charge(refineSlotBytes + assignmentBytes*int64(len(as)))
	}
	t.mu.Unlock()
	return as, false, nil
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
