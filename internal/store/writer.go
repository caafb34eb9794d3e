package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"iflex/internal/markup"
	"iflex/internal/similarity"
)

// Manifest describes a disk store; it is written as manifest.json at
// ingest and validated at Open. Counts let tools report store shape
// without opening shards.
type Manifest struct {
	Version   int `json:"version"`
	Docs      int `json:"docs"`
	Shards    int `json:"shards"`
	ShardDocs int `json:"shard_docs"`
	Vocab     int `json:"vocab"`
	// Generation counts committed mutations (0 for a freshly ingested
	// store). Each generation adds one shard of new/superseding records
	// plus a delta sidecar (tombstones, vocabulary growth, postings).
	Generation int `json:"generation,omitempty"`
	// BaseDocs is the ordinal count covered by tokens.idx — the store's
	// size before its first mutation. At generation 0 it is unused:
	// tokens.idx covers all Docs.
	BaseDocs int `json:"base_docs,omitempty"`
}

// Options configures ingest.
type Options struct {
	// ShardDocs is the number of documents per shard file (default 2048).
	ShardDocs int
	// FS overrides the filesystem seam (tests/crash injection); the FS
	// decides what Sync does. nil means RealFS(true): a store whose Close
	// returned nil survives a crash.
	FS FS
}

// Writer streams documents into a new disk store: shard files plus the
// persistent inverted token index. Documents are assigned ordinals in
// Add order. Memory stays bounded by the vocabulary and the (delta-
// compressed) postings, never by the corpus text.
type Writer struct {
	dir  string
	opts Options
	fs   FS

	shard    *shardFile
	shardIdx int

	vocab    []string          // token id -> token
	vocabIDs map[string]uint32 // token -> id
	postings [][]byte          // token id -> uvarint gap run
	lastDoc  []int             // token id -> last ordinal posted (-1 none)

	man Manifest
	err error
}

// Create starts a new store at dir (created if missing; must not already
// contain a store). Leftover shard/index/staging files from a crashed
// ingest — recognizable because no manifest was ever published — are
// swept so the new ingest starts clean.
func Create(dir string, opts Options) (*Writer, error) {
	if opts.ShardDocs <= 0 {
		opts.ShardDocs = 2048
	}
	if opts.FS == nil {
		opts.FS = RealFS(true)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already contains a store", dir)
	}
	if _, errs := sweepStoreOrphans(opts.FS, dir, -1, -1); len(errs) > 0 {
		return nil, fmt.Errorf("store: create %s: sweeping crashed-ingest leftovers: %v", dir, errs[0])
	}
	w := &Writer{
		dir:      dir,
		opts:     opts,
		fs:       opts.FS,
		vocabIDs: make(map[string]uint32),
		man:      Manifest{Version: version, ShardDocs: opts.ShardDocs},
	}
	if err := w.openShard(); err != nil {
		return nil, err
	}
	return w, nil
}

const manifestName = "manifest.json"

func shardName(i int) string { return fmt.Sprintf("shard-%04d.ifs", i) }

// shardFile encodes one shard file in the layout of format.go: the
// header when it is created, one length-prefixed record per add with its
// TOC entry held back, and the TOC and footer at seal. Ingest and
// Mutation.Commit both write their shards through it.
type shardFile struct {
	f    File
	buf  *bufio.Writer
	off  uint64 // file offset of the next record's recLen field
	toc  bufWriter
	docs int
}

// createShard creates the shard file at path and writes its header.
func createShard(fsys FS, path string) (*shardFile, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	sf := &shardFile{f: f, buf: bufio.NewWriterSize(f, 1<<20)}
	var hdr bufWriter
	hdr.str(shardMagic)
	hdr.u32(version)
	sf.buf.Write(hdr.b) // an empty buffer takes it; seal's Flush reports errors
	sf.off = uint64(len(hdr.b))
	sf.toc.u32(0) // count, patched at seal
	return sf, nil
}

// add appends one record (rec is everything after its recLen prefix) and
// returns the file offset of its recLen field.
func (sf *shardFile) add(id string, textLen int, rec []byte) (uint64, error) {
	off := sf.off
	sf.toc.u64(off)
	sf.toc.u32(uint32(len(rec)))
	sf.toc.u32(uint32(textLen))
	sf.toc.u32(uint32(len(id)))
	sf.toc.str(id)
	sf.off += uint64(4 + len(rec))
	sf.docs++
	var pre bufWriter
	pre.u32(uint32(len(rec)))
	if _, err := sf.buf.Write(pre.b); err != nil {
		return off, err
	}
	_, err := sf.buf.Write(rec)
	return off, err
}

// seal appends the TOC and footer and fsyncs the file, leaving it open:
// every shard is durable before a manifest publish makes it reachable.
func (sf *shardFile) seal() error {
	binary.LittleEndian.PutUint32(sf.toc.b, uint32(sf.docs))
	sf.toc.u64(sf.off)
	sf.toc.str(footerMagic)
	if _, err := sf.buf.Write(sf.toc.b); err != nil {
		return err
	}
	if err := sf.buf.Flush(); err != nil {
		return err
	}
	return sf.f.Sync()
}

func (w *Writer) openShard() error {
	sf, err := createShard(w.fs, filepath.Join(w.dir, shardName(w.shardIdx)))
	if err != nil {
		return fmt.Errorf("store: create shard: %w", err)
	}
	w.shard = sf
	return nil
}

// sealShard seals and closes the current shard.
func (w *Writer) sealShard() error {
	if err := w.shard.seal(); err != nil {
		return err
	}
	return w.shard.f.Close()
}

// tokenID interns a token, growing the vocabulary.
func (w *Writer) tokenID(tok string) uint32 {
	if id, ok := w.vocabIDs[tok]; ok {
		return id
	}
	id := uint32(len(w.vocab))
	w.vocabIDs[tok] = id
	w.vocab = append(w.vocab, tok)
	w.postings = append(w.postings, nil)
	w.lastDoc = append(w.lastDoc, -1)
	return id
}

// buildRecord parses one page's markup and encodes its shard record
// bytes (everything after the recLen prefix). intern maps tokens to
// ids, growing the vocabulary. The text is tokenized and each token
// interned once, in text order; the page's distinct token ids, which
// callers post to the inverted index, are that id list sorted and
// compacted.
func buildRecord(id, raw string, intern func(string) uint32) (rec []byte, textLen int, postIDs []uint32, err error) {
	c, err := markup.ParseContent(id, raw)
	if err != nil {
		return nil, 0, nil, err
	}
	toks := similarity.Tokens(c.Text)
	ids := make([]uint32, len(toks))
	for i, t := range toks {
		ids[i] = intern(t)
	}
	size := 28 + len(id) + 4*len(ids) + len(c.Text) + 12*(len(c.Marks)+len(c.Links))
	for _, l := range c.Links {
		size += len(l.Target)
	}
	w := bufWriter{b: make([]byte, 0, size)} // the record's exact size: one allocation
	w.u32(uint32(len(id)))
	w.str(id)
	w.u32(uint32(len(c.Text)))
	w.u32(0) // pageLen and the checksum, patched below
	w.u32(0)
	sum := len(w.b)
	w.u32(uint32(len(ids)))
	w.u32s(ids)
	page := len(w.b)
	w.page(c)
	binary.LittleEndian.PutUint32(w.b[sum-8:], uint32(len(w.b)-page))
	binary.LittleEndian.PutUint32(w.b[sum-4:], crc32.ChecksumIEEE(w.b[sum:]))
	slices.Sort(ids)
	return w.b, len(c.Text), slices.Compact(ids), nil
}

// Add ingests one page: its markup is parsed once, and the record
// stores the parsed page with the token list of its text, so what a
// load returns and what the index answers come from one parse. The
// record is appended to the current shard, and the page's distinct
// tokens are posted to the inverted index.
func (w *Writer) Add(id, raw string) error {
	if w.err != nil {
		return w.err
	}
	rec, textLen, postIDs, err := buildRecord(id, raw, w.tokenID)
	if err != nil {
		return w.fail(err)
	}
	ord := w.man.Docs
	for _, tid := range postIDs {
		w.postings[tid] = appendDelta(w.postings[tid], ord, w.lastDoc[tid])
		w.lastDoc[tid] = ord
	}
	if _, err := w.shard.add(id, textLen, rec); err != nil {
		return w.fail(err)
	}
	w.man.Docs++

	if w.shard.docs >= w.opts.ShardDocs {
		if err := w.sealShard(); err != nil {
			return w.fail(err)
		}
		w.shardIdx++
		if err := w.openShard(); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = fmt.Errorf("store: ingest: %w", err)
	}
	return w.err
}

// Close seals the last shard and writes tokens.idx and manifest.json.
// The store is not readable until Close returns nil. The commit order is
// crash-safe: every shard is fsynced at seal, the index is published via
// temp-file + fsync + rename + directory fsync (which also makes the
// shard directory entries durable), and the manifest is published the
// same way last — the manifest rename is the single commit point. A
// crash anywhere earlier leaves a directory without a manifest, which
// Open refuses and a fresh Create sweeps.
func (w *Writer) Close() error {
	if w.err != nil {
		w.shard.f.Close()
		return w.err
	}
	if err := w.sealShard(); err != nil {
		return w.fail(err)
	}
	w.man.Shards = w.shardIdx + 1
	w.man.Vocab = len(w.vocab)
	if err := w.writeIndex(); err != nil {
		return w.fail(err)
	}
	if err := writeManifest(w.fs, w.dir, w.man); err != nil {
		return w.fail(err)
	}
	return nil
}

// Manifest returns the counts accumulated so far (complete after Close).
func (w *Writer) Manifest() Manifest { return w.man }

const indexName = "tokens.idx"

// writeIndex persists the vocabulary and the per-token posting runs,
// publishing the file via temp + fsync + rename + directory fsync.
func (w *Writer) writeIndex() error {
	var hdr bufWriter
	hdr.str(indexMagic)
	hdr.u32(version)
	hdr.u32(uint32(len(w.vocab)))
	hdr.u32(uint32(w.man.Docs))
	for _, tok := range w.vocab {
		hdr.u16(uint16(len(tok)))
		hdr.str(tok)
	}
	off := uint64(len(hdr.b) + 8*(len(w.vocab)+1))
	var offs bufWriter
	for _, run := range w.postings {
		offs.u64(off)
		off += uint64(len(run))
	}
	offs.u64(off)
	return atomicWriteFile(w.fs, filepath.Join(w.dir, indexName), func(f io.Writer) error {
		// A bufio.Writer keeps its first error: the writes after it do
		// nothing and Flush returns it.
		buf := bufio.NewWriterSize(f, 1<<20)
		_, _ = buf.Write(hdr.b)
		_, _ = buf.Write(offs.b)
		for _, run := range w.postings {
			_, _ = buf.Write(run)
		}
		return buf.Flush()
	})
}
