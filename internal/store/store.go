// Package store holds the document stores behind corpus-scale
// evaluation: a sharded, file-backed DiskStore that keeps only a bounded
// set of pages resident and materializes text.Document token/line indexes
// lazily per document, and an in-memory MemStore that serves the same
// token-index methods for small corpora and tests. Document handles are
// stable for the lifetime of a store (the feature memo keys its record
// tables by handle identity; the engine's subset and quarantine key by
// document ID); a DiskStore may drop and re-materialize document
// *content* behind the handles at any time.
//
// A disk store is built once at ingest by a Writer, which also persists
// an inverted token index (tokens.idx) over the blocking tokens of every
// page. The engine's similarity join consults it directly instead of
// re-tokenizing the corpus on every run: its blocking index is backed by
// the posting runs (DocOrdinal/TokenPostings, the engine's PostingsIndex)
// and whole-page token records come from the stored sequences
// (NormTokens, the engine's DocIndex). BlockTokens answers the stored
// blocking list for tests and measurements. Ingest tokenizes the page
// text once with the function the engine would apply at query time
// (similarity.Tokens), sorted and deduplicated for blocking and under
// NormalizedTokens' article rule for the token records, so consulting the
// index is byte-identical to computing on the fly.
package store

import (
	"sort"
	"sync"

	"iflex/internal/similarity"
	"iflex/internal/text"
)

// MemStore is the store over an in-memory document slice — the corpus
// shape the engine always had. It also serves the token-index
// interfaces by tokenizing on first use, which lets differential tests
// drive the engine's index-consulting paths without touching disk.
type MemStore struct {
	docs []*text.Document

	once     sync.Once
	ord      map[*text.Document]int
	blockTok [][]string       // per ordinal: distinct sorted blocking tokens
	normTok  [][]string       // per ordinal: ordered normalized tokens
	postings map[string][]int // blocking token -> sorted doc ordinals
}

// NewMemStore wraps documents in a MemStore. The slice is not copied.
func NewMemStore(docs []*text.Document) *MemStore {
	return &MemStore{docs: docs}
}

// index tokenizes every document once, on first index use.
func (m *MemStore) index() {
	m.once.Do(func() {
		m.ord = make(map[*text.Document]int, len(m.docs))
		m.blockTok = make([][]string, len(m.docs))
		m.normTok = make([][]string, len(m.docs))
		m.postings = make(map[string][]int)
		for i, d := range m.docs {
			m.ord[d] = i
			txt := d.Text()
			m.blockTok[i] = DistinctTokens(txt)
			m.normTok[i] = similarity.NormalizedTokens(d.WholeSpan().NormText())
			for _, t := range m.blockTok[i] {
				m.postings[t] = append(m.postings[t], i)
			}
		}
	})
}

// BlockTokens returns the distinct blocking tokens of d (the token set
// simjoin blocking uses), or false if d is not in this store.
func (m *MemStore) BlockTokens(d *text.Document) ([]string, bool) {
	m.index()
	i, ok := m.ord[d]
	if !ok {
		return nil, false
	}
	return m.blockTok[i], true
}

// NormTokens returns the ordered normalized token sequence of the whole
// document (the sequence the prefilter and similarity p-functions use),
// or false if d is not in this store.
func (m *MemStore) NormTokens(d *text.Document) ([]string, bool) {
	m.index()
	i, ok := m.ord[d]
	if !ok {
		return nil, false
	}
	return m.normTok[i], true
}

// DocOrdinal returns d's position in Docs(), or false if absent.
func (m *MemStore) DocOrdinal(d *text.Document) (int, bool) {
	m.index()
	i, ok := m.ord[d]
	return i, ok
}

// NumDocs returns the number of documents (the ordinal space size).
func (m *MemStore) NumDocs() int { return len(m.docs) }

// TokenPostings returns the sorted ordinals of documents whose blocking
// token set contains tok. ok is false only when the index cannot answer
// (never for MemStore); an indexed token with no documents returns an
// empty list with ok true.
func (m *MemStore) TokenPostings(tok string) ([]int, bool) {
	m.index()
	return m.postings[tok], true
}

// DistinctTokens returns the sorted distinct similarity.Tokens of s —
// the per-document token set the blocking index is built from.
func DistinctTokens(s string) []string { return distinct(similarity.Tokens(s)) }

// distinct sorts toks in place and returns its distinct prefix.
func distinct(toks []string) []string {
	if len(toks) == 0 {
		return nil
	}
	sort.Strings(toks)
	out := toks[:1]
	for _, t := range toks[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}
