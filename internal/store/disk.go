package store

import (
	"container/list"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"iflex/internal/text"
)

// OpenOptions configures a DiskStore.
type OpenOptions struct {
	// ResidentBudget caps the estimated bytes of materialized document
	// content kept resident; the load that exceeds it releases
	// least-recently-loaded pages (they re-materialize on next touch)
	// before it returns. 0 means unlimited.
	ResidentBudget int64
	// FS overrides the filesystem seam for mutations and recovery sweeps
	// (tests/crash injection; RealFS(false) skips the fsyncs). nil means
	// the real, durable filesystem.
	FS FS
}

// docMeta locates one document's record inside its shard.
type docMeta struct {
	shard   int
	offset  uint64 // of the record's recLen field
	recLen  uint32
	textLen uint32
	id      string
}

// DiskStore is the sharded, file-backed store. Opening reads only the
// shard TOCs, the manifest, and the token-index vocabulary; page content
// is read, decoded, and token/line-indexed on first touch, per document,
// and released again under the resident budget. It implements the
// engine's DocIndex and PostingsIndex interfaces, answering token
// queries from the ingest-time index without paging text in.
type DiskStore struct {
	dir    string
	fs     FS
	man    Manifest
	shards []*os.File

	// recovery notes what Open repaired: orphan files swept, a torn
	// final-generation sidecar rolled back. Empty for a clean open.
	recovery []string
	meta     []docMeta
	docs     []*text.Document // every ordinal ever written, incl. superseded
	ord      map[*text.Document]int

	// Mutable-generation state. Ordinals are append-only: a mutation
	// writes superseding/new records into a fresh shard and tombstones
	// the ordinals they replace. view is the live corpus in stable order
	// (an updated document keeps the position its id first appeared at).
	tomb []bool
	view []*text.Document
	live map[string]int // id -> live ordinal

	idx *tokenIndex

	budget   int64
	mu       sync.Mutex // guards lru, loadedB, trimming
	lru      *list.List // of int (ordinal), front = oldest
	lruElem  []*list.Element
	loadedB  int64
	trimming bool
	trimDone *sync.Cond // broadcast when a trim pass finishes

	loads    atomic.Int64
	releases atomic.Int64
	closed   atomic.Bool
}

// Open opens a store previously built by a Writer. Open is also the
// crash-recovery point: the manifest (always published atomically) names
// exactly what belongs to the store, so orphan shards, sidecars, and
// *.tmp staging files beyond it — leftovers of a crashed commit — are
// ignored and swept. If the final generation's delta sidecar is torn
// (missing, truncated, or failing its integrity footer), the store rolls
// back to the previous generation: the manifest is rewritten, the
// generation's shard and sidecar are swept, and Open succeeds with the
// last intact state. A torn sidecar below the final generation cannot be
// rolled past (later generations build on it) and fails loudly.
func Open(dir string, opts OpenOptions) (*DiskStore, error) {
	if opts.FS == nil {
		opts.FS = RealFS(true)
	}
	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	var man Manifest
	if err := json.Unmarshal(mb, &man); err != nil {
		return nil, fmt.Errorf("store: open %s: bad manifest: %w", dir, err)
	}
	if man.Version != version {
		return nil, fmt.Errorf("store: open %s: version %d (want %d)", dir, man.Version, version)
	}
	s := &DiskStore{
		dir:    dir,
		fs:     opts.FS,
		man:    man,
		budget: opts.ResidentBudget,
		lru:    list.New(),
	}
	s.trimDone = sync.NewCond(&s.mu)
	for i := 0; i < man.Shards; i++ {
		f, err := os.Open(filepath.Join(dir, shardName(i)))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store: open shard %d: %w", i, err)
		}
		s.shards = append(s.shards, f)
		st, err := f.Stat()
		if err == nil {
			err = s.readTOC(i, f, st.Size())
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store: shard %d: %w", i, err)
		}
	}
	if len(s.meta) != man.Docs {
		s.Close()
		return nil, fmt.Errorf("store: open %s: shards hold %d docs, manifest says %d", dir, len(s.meta), man.Docs)
	}
	// Each commit adds one shard, so the shards below the generations' hold
	// what tokens.idx covers; if not, a rollback would drop base pages.
	base := sort.Search(len(s.meta), func(i int) bool { return s.meta[i].shard >= man.Shards-man.Generation })
	if g := man.Generation; g < 0 || g > man.Shards || g > 0 && man.BaseDocs != base {
		s.Close()
		return nil, fmt.Errorf("store: open %s: generation %d over %d shards does not leave the %d base docs", dir, g, man.Shards, man.BaseDocs)
	}
	s.tomb = make([]bool, len(s.meta))
	baseDocs := man.BaseDocs
	if man.Generation == 0 {
		baseDocs = man.Docs
	}
	idx, err := openTokenIndex(filepath.Join(dir, indexName), baseDocs)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.idx = idx
	docs := baseDocs
	for g := 1; g <= s.man.Generation; g++ {
		patch, err := s.parseDeltaFile(g, docs)
		if err != nil {
			if g == s.man.Generation {
				// The freshest generation's sidecar is torn: roll back to
				// the last intact state instead of failing the whole store.
				if rerr := s.rollbackLastGeneration(err); rerr != nil {
					s.Close()
					return nil, fmt.Errorf("store: open %s: %w", dir, rerr)
				}
				break
			}
			s.Close()
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		s.applyPatch(patch)
		docs = patch.docs
	}
	if len(s.idx.vocab) != s.man.Vocab {
		s.Close()
		return nil, fmt.Errorf("store: open %s: index holds %d tokens, manifest says %d", dir, len(s.idx.vocab), s.man.Vocab)
	}
	s.ord = make(map[*text.Document]int, len(s.meta))
	s.addHandles(0)
	if removed, errs := sweepStoreOrphans(s.fs, dir, s.man.Shards, s.man.Generation); len(removed) > 0 || len(errs) > 0 {
		for _, name := range removed {
			s.recovery = append(s.recovery, fmt.Sprintf("swept orphan %s", name))
		}
		for _, e := range errs {
			s.recovery = append(s.recovery, e.Error())
		}
	}
	if err := s.rebuildView(); err != nil {
		s.Close()
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return s, nil
}

// addHandles makes the lazy document handle of every record from ordinal
// from on: Open makes them all, Commit those of its generation.
func (s *DiskStore) addHandles(from int) {
	for ord := from; ord < len(s.meta); ord++ {
		doc := text.NewLazyDocument(s.meta[ord].id, int(s.meta[ord].textLen), func() (text.DocContent, error) {
			return s.loadDoc(ord)
		})
		s.docs = append(s.docs, doc)
		s.ord[doc] = ord
		s.lruElem = append(s.lruElem, nil)
	}
}

// rollbackLastGeneration undoes the manifest's final generation at Open
// time, after its delta sidecar failed to parse: the generation's shard
// is dropped, counts are recomputed from the TOCs, and the manifest is
// durably rewritten at the previous generation so the rollback is
// permanent. The in-memory index state is untouched by the failed parse
// (sidecars apply atomically), so after rollback it is exactly the
// previous generation's.
func (s *DiskStore) rollbackLastGeneration(cause error) error {
	g := s.man.Generation
	dropShard := s.man.Shards - 1
	if g < 1 || dropShard < 0 {
		return cause
	}
	keep := sort.Search(len(s.meta), func(i int) bool { return s.meta[i].shard >= dropShard })
	man := s.man
	man.Generation = g - 1
	man.Shards = dropShard
	man.Docs = keep
	man.Vocab = len(s.idx.vocab)
	if man.Generation == 0 {
		man.BaseDocs = 0
	}
	if err := writeManifest(s.fs, s.dir, man); err != nil {
		return fmt.Errorf("rolling back generation %d (%v): rewriting manifest: %w", g, cause, err)
	}
	s.shards[dropShard].Close()
	s.shards = s.shards[:dropShard]
	s.meta = s.meta[:keep]
	s.tomb = s.tomb[:keep]
	s.man = man
	s.recovery = append(s.recovery,
		fmt.Sprintf("rolled back to generation %d: %v", man.Generation, cause))
	return nil
}

// Recovery reports what Open repaired (orphans swept, a torn final
// generation rolled back); empty for a clean open.
func (s *DiskStore) Recovery() []string {
	return append([]string(nil), s.recovery...)
}

// rebuildView recomputes the live-document view: ordinals ascending,
// each id taking the position of its first appearance, superseded
// records replaced by their live successor and removed ids dropped.
func (s *DiskStore) rebuildView() error {
	s.live = make(map[string]int, len(s.meta))
	for i, m := range s.meta {
		if s.tomb[i] {
			continue
		}
		if prev, dup := s.live[m.id]; dup {
			return fmt.Errorf("document %q live at ordinals %d and %d", m.id, prev, i)
		}
		s.live[m.id] = i
	}
	seen := make(map[string]bool, len(s.live))
	s.view = s.view[:0]
	for _, m := range s.meta {
		if seen[m.id] {
			continue
		}
		seen[m.id] = true
		if ord, ok := s.live[m.id]; ok {
			s.view = append(s.view, s.docs[ord])
		}
	}
	return nil
}

// readTOC parses the footer and table of contents of shard, a file of
// size bytes.
func (s *DiskStore) readTOC(shard int, f io.ReaderAt, size int64) error {
	if size < int64(len(shardMagic))+4+footerSize {
		return fmt.Errorf("file too short (%d bytes)", size)
	}
	hdr := make([]byte, len(shardMagic)+4)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return err
	}
	if string(hdr[:4]) != shardMagic {
		return fmt.Errorf("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return fmt.Errorf("version %d (want %d)", v, version)
	}
	foot := make([]byte, footerSize)
	if _, err := f.ReadAt(foot, size-footerSize); err != nil {
		return err
	}
	if string(foot[8:]) != footerMagic {
		return fmt.Errorf("bad footer magic %q", foot[8:])
	}
	tocOff := binary.LittleEndian.Uint64(foot[:8])
	if tocOff < uint64(len(hdr)) || tocOff > uint64(size-footerSize) {
		return fmt.Errorf("TOC offset %d out of range", tocOff)
	}
	tb := make([]byte, uint64(size-footerSize)-tocOff)
	if _, err := f.ReadAt(tb, int64(tocOff)); err != nil {
		return err
	}
	r := bufReader{b: tb}
	count := int(r.u32("TOC count"))
	for i := 0; i < count; i++ {
		m := docMeta{shard: shard}
		m.offset = r.u64("TOC offset")
		m.recLen = r.u32("TOC recLen")
		m.textLen = r.u32("TOC textLen")
		idLen := int(r.u32("TOC idLen"))
		m.id = string(r.bytes(idLen, "TOC id"))
		if r.err != nil {
			return r.err
		}
		// A record, its 4-byte length first, lies between the header and the
		// TOC. The end is bounded by a difference, which cannot wrap.
		if m.offset < uint64(len(hdr)) || m.offset > tocOff || tocOff-m.offset < 4+uint64(m.recLen) {
			return fmt.Errorf("doc %q record [%d,+%d) outside [%d,%d)", m.id, m.offset, 4+uint64(m.recLen), len(hdr), tocOff)
		}
		s.meta = append(s.meta, m)
	}
	if r.err != nil || r.off != len(tb) {
		return fmt.Errorf("malformed TOC")
	}
	return nil
}

// recordBufs holds the buffers records are read into, shared by every
// store and goroutine: a read takes one and gives it back when its
// decoding is done.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// readRecord reads a document's record bytes (without the recLen
// prefix) into a pooled buffer, parses the fixed header, verifies the
// checksum and calls decode with the reader positioned at the token list
// and the length of the page part. The buffer goes back to the pool when
// readRecord returns, on every path: nothing decode keeps may alias it.
func (s *DiskStore) readRecord(ord int, decode func(r *bufReader, pageLen int) error) error {
	m := s.meta[ord]
	if s.closed.Load() {
		return fmt.Errorf("store is closed")
	}
	bp := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(bp)
	if cap(*bp) < int(m.recLen) {
		*bp = make([]byte, int(m.recLen))
	}
	b := (*bp)[:m.recLen]
	if _, err := s.shards[m.shard].ReadAt(b, int64(m.offset)+4); err != nil {
		return fmt.Errorf("reading record: %w", err)
	}
	r := bufReader{b: b}
	idLen := int(r.u32("idLen"))
	id := r.bytes(idLen, "id")
	textLen := r.u32("textLen")
	pageLen := int(r.u32("pageLen"))
	crc := r.u32("crc")
	if r.err != nil {
		return r.err
	}
	if string(id) != m.id || textLen != m.textLen {
		return fmt.Errorf("record/TOC mismatch for doc %q", m.id)
	}
	if crc32.ChecksumIEEE(b[r.off:]) != crc {
		return fmt.Errorf("doc %q: record checksum mismatch (corrupt shard?)", m.id)
	}
	return decode(&r, pageLen)
}

// loadDoc is the lazy-load callback: read the record, verify the
// checksum, skip the token list and decode the page ingest parsed —
// its text exactly the TOC's textLen bytes, every mark and link inside
// it, nothing after it. Any failure is returned (and surfaces as a
// per-document quarantine through the engine's fault guard).
func (s *DiskStore) loadDoc(ord int) (c text.DocContent, err error) {
	m := s.meta[ord]
	err = s.readRecord(ord, func(r *bufReader, pageLen int) error {
		r.bytes(4*int(r.u32("nTokens")), "tokens")
		if r.err == nil && len(r.b)-r.off != pageLen {
			return fmt.Errorf("doc %q: %d bytes after the token list, the record says %d (corrupt shard?)", m.id, len(r.b)-r.off, pageLen)
		}
		c = r.page(int(m.textLen))
		if r.err != nil {
			return fmt.Errorf("doc %q: %w", m.id, r.err)
		}
		if r.off != len(r.b) {
			return fmt.Errorf("doc %q: %d bytes after the page (corrupt shard?)", m.id, len(r.b)-r.off)
		}
		return nil
	})
	if err != nil {
		return text.DocContent{}, err
	}
	s.noteLoad(ord)
	return c, nil
}

// estBytes approximates, on the high side, the resident footprint of a
// materialized page: text, token and line tables, lazy lower-case copy.
func estBytes(textLen int) int64 { return int64(textLen)*14 + 512 }

// noteLoad records a materialization for the resident budget and, when
// over, trims before it returns: the estimate is not left above the budget
// (but for a single page larger than it), and how many pages a sequence of
// touches loads depends on the sequence alone, not on when a trimmer got
// scheduled. The caller holds the loading document's materialization lock
// and Release waits for a victim's in-flight load, so two loaders trimming
// each other's pages could deadlock; only one goroutine trims at a time
// (trimming), and a load that finishes meanwhile leaves its excess to that
// trimmer without waiting.
func (s *DiskStore) noteLoad(ord int) {
	s.loads.Add(1)
	if s.budget <= 0 {
		return
	}
	s.mu.Lock()
	if e := s.lruElem[ord]; e != nil {
		s.lru.MoveToBack(e)
	} else {
		s.lruElem[ord] = s.lru.PushBack(ord)
		s.loadedB += estBytes(int(s.meta[ord].textLen))
	}
	over := s.loadedB > s.budget && !s.trimming
	if over {
		s.trimming = true
	}
	s.mu.Unlock()
	if over {
		s.trim(ord)
	}
}

// trim releases least-recently-loaded pages until back under budget. It
// never picks self, the page whose load is calling: that document's lock
// is the caller's own.
func (s *DiskStore) trim(self int) {
	for {
		s.mu.Lock()
		e := s.lru.Front()
		if e != nil && e.Value.(int) == self {
			e = e.Next()
		}
		if s.loadedB <= s.budget || e == nil {
			s.trimming = false
			s.trimDone.Broadcast()
			s.mu.Unlock()
			return
		}
		ord := e.Value.(int)
		s.lru.Remove(e)
		s.lruElem[ord] = nil
		s.loadedB -= estBytes(int(s.meta[ord].textLen))
		s.mu.Unlock()
		// Outside s.mu: Release takes the document's own lock and may
		// wait for an in-flight load of that document to finish.
		if s.docs[ord].Release() {
			s.releases.Add(1)
		}
	}
}

// Len returns the number of live documents.
func (s *DiskStore) Len() int { return len(s.view) }

// Doc returns the i'th live document handle.
func (s *DiskStore) Doc(i int) *text.Document { return s.view[i] }

// Docs returns the live document handles in stable view order: an
// updated document keeps the position its id first appeared at, removed
// ids drop out, added documents append. Handles of unchanged documents
// are identical across mutations. The returned slice is invalidated by
// the next committed mutation.
func (s *DiskStore) Docs() []*text.Document { return s.view }

// DocByID returns the live document with the given id.
func (s *DiskStore) DocByID(id string) (*text.Document, bool) {
	ord, ok := s.live[id]
	if !ok {
		return nil, false
	}
	return s.docs[ord], true
}

// Generation returns the number of committed mutations.
func (s *DiskStore) Generation() int { return s.man.Generation }

// Manifest returns the store's manifest.
func (s *DiskStore) Manifest() Manifest { return s.man }

// Loads and Releases report materialization traffic (for stats/tests).
func (s *DiskStore) Loads() int64    { return s.loads.Load() }
func (s *DiskStore) Releases() int64 { return s.releases.Load() }

// TrimWait blocks until no budget trim is in flight. A load trims before
// it returns, so a caller's own touches leave nothing to wait for; it
// matters to a caller that reads Releases or ResidentEstimate while other
// goroutines' loads may still be trimming.
func (s *DiskStore) TrimWait() {
	s.mu.Lock()
	for s.trimming {
		s.trimDone.Wait()
	}
	s.mu.Unlock()
}

// ResidentEstimate returns the current estimated resident content bytes.
func (s *DiskStore) ResidentEstimate() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadedB
}

// Close closes the shard files. Content already materialized stays
// readable; a released page touched after Close faults (and quarantines).
func (s *DiskStore) Close() error {
	s.closed.Store(true)
	var first error
	for _, f := range s.shards {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.idx != nil {
		if err := s.idx.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DocOrdinal returns d's record ordinal, the number postings hold, or
// false if d is not from this store. It is not d's position in Docs():
// an updated page keeps its view position but its record gets the next
// free ordinal.
func (s *DiskStore) DocOrdinal(d *text.Document) (int, bool) {
	i, ok := s.ord[d]
	return i, ok
}

// NumDocs returns the ordinal space size — every record ever written,
// including superseded ones, so ordinals from any generation stay
// addressable.
func (s *DiskStore) NumDocs() int { return len(s.docs) }

// BlockTokens returns the distinct blocking tokens of d: the token list
// recorded at ingest, sorted and deduplicated, decoding only that list
// (never the page). ok is false when d is not from this store, the read
// fails or the record fails its checksum — callers fall back to
// tokenizing the text, whose load then faults on the same record.
func (s *DiskStore) BlockTokens(d *text.Document) ([]string, bool) {
	ids, ok := s.TokenIDs(d)
	return distinct(tokenStrings(s, ids)), ok
}

// TokenIDs returns d's recorded token list — similarity.Tokens of its
// text, in text order — as ids in the store's vocabulary (Token), in a
// slice the caller owns; non-nil when ok, a page without tokens
// included. Ids are append-only across commits. Same contract as
// BlockTokens.
func (s *DiskStore) TokenIDs(d *text.Document) (ids []uint32, ok bool) {
	ord, ok := s.ord[d]
	if !ok {
		return nil, false
	}
	err := s.readRecord(ord, func(r *bufReader, _ int) error {
		ids = make([]uint32, r.count(4, "nTokens"))
		for i := range ids {
			if ids[i] = r.u32("token"); int(ids[i]) >= len(s.idx.vocab) {
				return fmt.Errorf("token id %d outside the vocabulary", ids[i])
			}
		}
		return r.err
	})
	if err != nil {
		return nil, false
	}
	return ids, true
}

// Token returns the token of an id TokenIDs returned.
func (s *DiskStore) Token(id uint32) string { return s.idx.vocab[id] }

// TokenPostings returns the sorted ordinals of live documents whose
// blocking token set contains tok: the persistent base run filtered by
// the tombstone map, merged with the delta-generation runs. A token
// absent from the vocabulary returns (nil, true): the index
// authoritatively says no document contains it. ok is false only on
// read failure. Every call reads and decodes the run afresh, so the
// returned slice is the caller's; the engine keeps what it translated
// in its similarity join's blocking index.
func (s *DiskStore) TokenPostings(tok string) ([]int, bool) {
	return s.idx.postings(tok, s.tomb)
}

// tokenIndex is the open tokens.idx: vocabulary and posting offsets in
// memory, posting runs read lazily. Mutations extend the vocabulary and
// add per-token delta ordinals in memory (persisted via delta sidecars);
// offs only ever covers the base vocabulary.
type tokenIndex struct {
	f        *os.File
	vocab    []string
	ids      map[string]uint32
	offs     []uint64
	docCount int              // base ordinals covered by the file's runs
	extra    map[uint32][]int // token id -> delta-generation ordinals, sorted
}

func openTokenIndex(path string, docCount int) (*tokenIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open token index: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fail := func(format string, args ...any) (*tokenIndex, error) {
		f.Close()
		return nil, fmt.Errorf("store: token index: "+format, args...)
	}
	hdr := make([]byte, 16)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return fail("reading header: %v", err)
	}
	if string(hdr[:4]) != indexMagic {
		return fail("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return fail("version %d (want %d)", v, version)
	}
	vocabCount := int(binary.LittleEndian.Uint32(hdr[8:]))
	if dc := int(binary.LittleEndian.Uint32(hdr[12:])); dc != docCount {
		return fail("indexed %d docs, store has %d", dc, docCount)
	}
	// Each token needs at least a 2-byte length and an 8-byte offset, and
	// one closing offset follows: an untrusted count the file cannot hold
	// fails here, before anything is allocated for it.
	if bodyLen := st.Size() - 16; int64(vocabCount) > (bodyLen-8)/10 {
		return fail("%d tokens cannot fit in %d bytes", vocabCount, bodyLen)
	}
	// Vocabulary and offsets occupy the file up to the first posting run;
	// read generously: everything before offs[0] per the writer's layout.
	body := make([]byte, st.Size()-16)
	if _, err := f.ReadAt(body, 16); err != nil {
		return fail("reading vocabulary: %v", err)
	}
	r := bufReader{b: body}
	idx := &tokenIndex{
		f: f, docCount: docCount,
		ids:   make(map[string]uint32, vocabCount),
		extra: make(map[uint32][]int),
	}
	idx.vocab = make([]string, vocabCount)
	for i := 0; i < vocabCount; i++ {
		n := int(r.u16("vocab len"))
		tok := string(r.bytes(n, "vocab token"))
		if _, dup := idx.ids[tok]; dup && r.err == nil {
			return fail("token %q listed twice", tok)
		}
		idx.vocab[i] = tok
		idx.ids[tok] = uint32(i)
	}
	idx.offs = make([]uint64, vocabCount+1)
	for i := range idx.offs {
		idx.offs[i] = r.u64("posting offset")
	}
	if r.err != nil {
		return fail("%v", r.err)
	}
	// The first posting run starts where the offset table ends.
	if end := uint64(16 + r.off); idx.offs[0] != end {
		return fail("first posting run at %d, offset table ends at %d", idx.offs[0], end)
	}
	for i := 0; i < vocabCount; i++ {
		if idx.offs[i] > idx.offs[i+1] || idx.offs[vocabCount] > uint64(st.Size()) {
			return fail("posting offsets out of order")
		}
	}
	return idx, nil
}

func (x *tokenIndex) postings(tok string, tomb []bool) ([]int, bool) {
	id, ok := x.ids[tok]
	if !ok {
		return nil, true // authoritative: no page contains this token
	}
	var out []int
	if int(id) < len(x.offs)-1 { // base-vocabulary token: decode its file run
		n := x.offs[id+1] - x.offs[id]
		if n > 0 {
			b := make([]byte, n)
			if _, err := x.f.ReadAt(b, int64(x.offs[id])); err != nil {
				return nil, false
			}
			var err error
			out, err = decodePostings(b, x.docCount)
			if err != nil {
				return nil, false
			}
		}
	}
	if len(tomb) > 0 {
		live := out[:0]
		for _, ord := range out {
			if !tomb[ord] {
				live = append(live, ord)
			}
		}
		out = live
		for _, ord := range x.extra[id] { // delta ordinals all exceed base ones
			if !tomb[ord] {
				out = append(out, ord)
			}
		}
	} else {
		out = append(out, x.extra[id]...)
	}
	return out, true
}

func (x *tokenIndex) close() error { return x.f.Close() }

// SortedTokens returns the vocabulary sorted lexically (debug helper).
func (s *DiskStore) SortedTokens() []string {
	out := append([]string(nil), s.idx.vocab...)
	sort.Strings(out)
	return out
}
