package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Delta reports what a committed mutation changed, by document id.
type Delta struct {
	Added   []string `json:"added,omitempty"`
	Updated []string `json:"updated,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// Mutation batches document puts and removes against an open DiskStore.
// Commit writes one new generation — a shard of new records plus a
// delta sidecar (tombstones, vocabulary growth, postings) — and updates
// the open store in place: unchanged documents keep their handles and
// ordinals, superseded records are tombstoned, and the token index
// stays consistent without a rebuild. The caller must be quiescent (no
// concurrent reads through the store) across Commit, like SetDocFilter.
type Mutation struct {
	s    *DiskStore
	puts []mutPut
	rems []string
	seen map[string]bool
	done bool
}

type mutPut struct{ id, raw string }

// BeginMutation starts an empty mutation batch.
func (s *DiskStore) BeginMutation() (*Mutation, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("store: mutate: store is closed")
	}
	return &Mutation{s: s, seen: make(map[string]bool)}, nil
}

// Put stages a document write: an add if id is new, a supersede if a
// live record with the same id exists. Each id may appear once per
// mutation.
func (m *Mutation) Put(id, raw string) error {
	if err := m.stage(id); err != nil {
		return err
	}
	m.puts = append(m.puts, mutPut{id: id, raw: raw})
	return nil
}

// Remove stages a document removal; the id must be live.
func (m *Mutation) Remove(id string) error {
	if err := m.stage(id); err != nil {
		return err
	}
	if _, ok := m.s.live[id]; !ok {
		return fmt.Errorf("store: mutate: remove %q: no such document", id)
	}
	m.rems = append(m.rems, id)
	return nil
}

func (m *Mutation) stage(id string) error {
	if m.done {
		return fmt.Errorf("store: mutate: mutation already committed")
	}
	if id == "" {
		return fmt.Errorf("store: mutate: empty document id")
	}
	if m.seen[id] {
		return fmt.Errorf("store: mutate: document %q staged twice", id)
	}
	m.seen[id] = true
	return nil
}

func deltaName(g int) string { return fmt.Sprintf("delta-%04d.idx", g) }

// Commit writes the staged changes as a new generation and applies them
// to the open store. An empty mutation commits nothing and returns an
// empty delta.
func (m *Mutation) Commit() (*Delta, error) {
	if m.done {
		return nil, fmt.Errorf("store: mutate: mutation already committed")
	}
	m.done = true
	s := m.s
	if len(m.puts) == 0 && len(m.rems) == 0 {
		return &Delta{}, nil
	}

	gen := s.man.Generation + 1
	shardIdx := s.man.Shards
	prevDocs := len(s.meta)
	prevVocab := len(s.idx.vocab)

	// Intern new tokens into the generation's patch so a failed commit
	// leaves the open index untouched; ids continue the store's id space.
	patch := &deltaPatch{docs: prevDocs + len(m.puts), posts: make(map[uint32][]int)}
	localIDs := make(map[string]uint32)
	intern := func(b []byte) uint32 {
		if id, ok := s.idx.ids[string(b)]; ok {
			return id
		}
		id, ok := localIDs[string(b)]
		if !ok {
			t := string(b)
			id = uint32(prevVocab + len(patch.toks))
			localIDs[t] = id
			patch.toks = append(patch.toks, t)
		}
		return id
	}

	// Encode the new records and collect their postings and TOC.
	recs := make([][]byte, 0, len(m.puts))
	newMeta := make([]docMeta, 0, len(m.puts))
	var ids []uint32
	for i, p := range m.puts {
		rec, textLen, postIDs, err := buildRecord(p.id, p.raw, intern, ids)
		ids = postIDs
		if err != nil {
			return nil, fmt.Errorf("store: mutate: %q: %w", p.id, err)
		}
		ord := prevDocs + i
		for _, tid := range postIDs {
			patch.posts[tid] = append(patch.posts[tid], ord)
		}
		newMeta = append(newMeta, docMeta{
			shard: shardIdx, recLen: uint32(len(rec)), textLen: uint32(textLen), id: p.id,
		})
		recs = append(recs, rec)
	}

	// Classify puts and collect tombstones.
	d := &Delta{Removed: append([]string(nil), m.rems...)}
	for _, p := range m.puts {
		if old, ok := s.live[p.id]; ok {
			patch.tombs = append(patch.tombs, old)
			d.Updated = append(d.Updated, p.id)
		} else {
			d.Added = append(d.Added, p.id)
		}
	}
	for _, id := range m.rems {
		old, ok := s.live[id]
		if !ok {
			return nil, fmt.Errorf("store: mutate: remove %q: no such document", id)
		}
		patch.tombs = append(patch.tombs, old)
	}
	sort.Ints(patch.tombs)
	sort.Strings(d.Added)
	sort.Strings(d.Updated)
	sort.Strings(d.Removed)

	// Crash-atomic commit order: (1) the generation shard, fsynced; (2)
	// the delta sidecar with its integrity footer, via temp + fsync +
	// rename + directory fsync, so no reader sees a torn sidecar under an
	// intact footer — which also makes the shard's directory entry
	// durable; (3) the
	// manifest, published the same way. The manifest rename is the single
	// commit point: a crash before it leaves the store at the previous
	// generation with (at most) an orphan shard/sidecar/temp file Open
	// sweeps; a crash after it leaves the new generation fully durable.
	// If Commit returns an error the in-memory store is still at the
	// previous generation; the on-disk store is at whichever generation
	// the manifest publish reached (reopening resolves it).
	if err := writeShardFile(s.fs, filepath.Join(s.dir, shardName(shardIdx)), recs, newMeta); err != nil {
		return nil, err
	}
	if err := atomicWriteFile(s.fs, filepath.Join(s.dir, deltaName(gen)), writeBytes(encodeDelta(gen, prevDocs, prevVocab, patch))); err != nil {
		return nil, fmt.Errorf("store: mutate: write delta sidecar: %w", err)
	}

	man := s.man
	man.Generation = gen
	man.Shards = shardIdx + 1
	man.Docs = patch.docs
	man.Vocab = prevVocab + len(patch.toks)
	if gen == 1 {
		man.BaseDocs = prevDocs // zero for a store built empty
	}
	if err := writeManifest(s.fs, s.dir, man); err != nil {
		return nil, fmt.Errorf("store: mutate: %w", err)
	}

	// Apply in place, as Open replays the generation: the shard is
	// reopened read-only like any other, its records get handles, and the
	// patch the sidecar holds is applied.
	f, err := os.Open(filepath.Join(s.dir, shardName(shardIdx)))
	if err != nil {
		return nil, fmt.Errorf("store: mutate: reopen shard: %w", err)
	}
	s.man = man
	s.shards = append(s.shards, f)
	s.mu.Lock()
	s.meta = append(s.meta, newMeta...)
	s.tomb = append(s.tomb, make([]bool, len(newMeta))...)
	s.addHandles(prevDocs)
	s.applyPatch(patch)
	s.mu.Unlock()
	if err := s.rebuildView(); err != nil {
		return nil, fmt.Errorf("store: mutate: %w", err)
	}
	return d, nil
}

// writeShardFile writes one generation's records as an ordinary shard,
// filling in each meta entry's offset, and fsyncs it before returning:
// the shard must be durable before the manifest publish makes it
// reachable. A crash mid-write leaves a partial shard the manifest never
// references — an orphan Open sweeps. The file is closed on every path,
// a failed write's included. Its buffer holds the whole file, so the
// shard reaches the file in one write.
func writeShardFile(fsys FS, path string, recs [][]byte, meta []docMeta) (err error) {
	size := len(shardMagic) + 4 + 4 + footerSize // header, TOC count, footer
	for i, rec := range recs {
		size += 4 + len(rec) + 20 + len(meta[i].id) // recLen, record, TOC entry
	}
	sf, err := createShard(fsys, path, bufio.NewWriterSize(nil, size))
	if err != nil {
		return fmt.Errorf("store: mutate: create shard: %w", err)
	}
	defer func() {
		if cerr := sf.f.Close(); err == nil {
			err = cerr
		}
	}()
	for i, rec := range recs {
		if meta[i].offset, err = sf.add(meta[i].id, int(meta[i].textLen), rec); err != nil {
			return err
		}
	}
	return sf.seal()
}

// encodeDelta lays out, per format.go, the sidecar of generation gen,
// which patch p applies to a store of prevDocs ordinals and prevVocab
// tokens, footer included; token ids are written in ascending order.
func encodeDelta(gen, prevDocs, prevVocab int, p *deltaPatch) []byte {
	var w bufWriter
	w.str(deltaMagic)
	w.u32(version)
	w.u32(uint32(gen))
	w.u32(uint32(prevDocs))
	w.u32(uint32(p.docs))
	w.u32(uint32(prevVocab))
	w.u32(uint32(len(p.tombs)))
	for _, t := range p.tombs {
		w.u32(uint32(t))
	}
	w.u32(uint32(len(p.toks)))
	for _, t := range p.toks {
		w.u16(uint16(len(t)))
		w.str(t)
	}
	tids := make([]int, 0, len(p.posts))
	for tid := range p.posts {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	w.u32(uint32(len(tids)))
	for _, tid := range tids {
		ords := p.posts[uint32(tid)]
		var run []byte
		prev := -1
		for _, ord := range ords {
			run = appendDelta(run, ord, prev)
			prev = ord
		}
		w.u32(uint32(tid))
		w.u32(uint32(len(run)))
		w.b = append(w.b, run...)
	}
	w.u32(crc32.ChecksumIEEE(w.b))
	w.str(deltaFootMagic)
	return w.b
}

// deltaPatch is what one generation changes in the index: a fully parsed
// and validated sidecar at Open, or what Commit wrote. Parsing is
// separated from application so a torn or corrupt sidecar never leaves
// the open store half-mutated — Open rolls back to the previous
// generation from an untouched in-memory state.
type deltaPatch struct {
	docs  int // the ordinal space after the generation (newDocs)
	tombs []int
	toks  []string
	posts map[uint32][]int // token id -> sorted ordinals
}

// parseDeltaFile reads generation g's sidecar and parses it against the
// store's current state: docs is the ordinal space the previous
// generation left (the base documents, then each generation's newDocs).
func (s *DiskStore) parseDeltaFile(g, docs int) (*deltaPatch, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, deltaName(g)))
	if err != nil {
		return nil, err
	}
	return parseDelta(b, g, docs, len(s.idx.vocab), len(s.meta))
}

// parseDelta verifies sidecar b's integrity footer and validates every
// field against the state the previous generation left — docs ordinals,
// vocab tokens, records in the shards — without mutating anything. It
// accepts only what encodeDelta writes: each posting run holds new
// ordinals only (in [prevDocs, newDocs), after every base and earlier
// delta ordinal), and token ids ascend strictly.
func parseDelta(b []byte, g, docs, vocab, records int) (*deltaPatch, error) {
	name := deltaName(g)
	if len(b) < deltaFooterSize || string(b[len(b)-4:]) != deltaFootMagic {
		return nil, fmt.Errorf("%s: missing integrity footer (torn sidecar?)", name)
	}
	body := b[:len(b)-deltaFooterSize]
	if crc := binary.LittleEndian.Uint32(b[len(b)-deltaFooterSize:]); crc != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%s: integrity checksum mismatch (torn sidecar?)", name)
	}
	r := bufReader{b: body}
	if string(r.bytes(4, "delta magic")) != deltaMagic {
		return nil, fmt.Errorf("%s: bad magic", name)
	}
	if v := r.u32("delta version"); v != version {
		return nil, fmt.Errorf("%s: version %d (want %d)", name, v, version)
	}
	if gen := int(r.u32("delta generation")); gen != g {
		return nil, fmt.Errorf("%s: holds generation %d", name, gen)
	}
	prevDocs := int(r.u32("delta prevDocs"))
	newDocs := int(r.u32("delta newDocs"))
	prevVocab := int(r.u32("delta prevVocab"))
	if newDocs > records || prevDocs > newDocs {
		return nil, fmt.Errorf("%s: doc counts %d..%d out of range (%d records)", name, prevDocs, newDocs, records)
	}
	if prevDocs != docs {
		return nil, fmt.Errorf("%s: ordinal chain broken (starts at %d, previous generation left %d)", name, prevDocs, docs)
	}
	if prevVocab != vocab {
		return nil, fmt.Errorf("%s: vocabulary chain broken (%d, index holds %d)", name, prevVocab, vocab)
	}
	p := &deltaPatch{docs: newDocs, posts: make(map[uint32][]int)}
	nTomb := int(r.u32("tombstone count"))
	for i := 0; i < nTomb; i++ {
		ord := int(r.u32("tombstone"))
		if r.err != nil {
			return nil, r.err
		}
		if ord >= prevDocs {
			return nil, fmt.Errorf("%s: tombstoned ordinal %d out of range", name, ord)
		}
		p.tombs = append(p.tombs, ord)
	}
	nVocab := int(r.u32("delta vocab count"))
	for i := 0; i < nVocab; i++ {
		n := int(r.u16("delta token len"))
		tok := string(r.bytes(n, "delta token"))
		if r.err != nil {
			return nil, r.err
		}
		p.toks = append(p.toks, tok)
	}
	nPost := int(r.u32("delta postings count"))
	prevTid := -1
	for i := 0; i < nPost; i++ {
		tid := r.u32("delta token id")
		runLen := int(r.u32("delta run len"))
		run := r.bytes(runLen, "delta run")
		if r.err != nil {
			return nil, r.err
		}
		if int(tid) >= prevVocab+len(p.toks) {
			return nil, fmt.Errorf("%s: posting for unknown token id %d", name, tid)
		}
		if int(tid) <= prevTid {
			return nil, fmt.Errorf("%s: token id %d after %d (ids must ascend)", name, tid, prevTid)
		}
		prevTid = int(tid)
		ords, err := decodePostings(run, newDocs)
		if err != nil {
			return nil, fmt.Errorf("%s: token id %d: %w", name, tid, err)
		}
		// The index appends a delta run after the base and earlier runs.
		if len(ords) > 0 && ords[0] < prevDocs {
			return nil, fmt.Errorf("%s: token id %d: ordinal %d predates the generation (starts at %d)", name, tid, ords[0], prevDocs)
		}
		p.posts[tid] = ords
	}
	if r.err != nil || r.off != len(r.b) {
		return nil, fmt.Errorf("%s: malformed sidecar", name)
	}
	return p, nil
}

// applyPatch folds a generation's patch into the open index state: Open
// applies each sidecar it replays, Commit the one it wrote.
func (s *DiskStore) applyPatch(p *deltaPatch) {
	for _, ord := range p.tombs {
		s.tomb[ord] = true
	}
	for _, tok := range p.toks {
		s.idx.ids[tok] = uint32(len(s.idx.vocab))
		s.idx.vocab = append(s.idx.vocab, tok)
	}
	for tid, ords := range p.posts {
		s.idx.extra[tid] = append(s.idx.extra[tid], ords...)
	}
}
