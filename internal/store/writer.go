package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"iflex/internal/markup"
	"iflex/internal/similarity"
)

// Manifest describes a disk store; it is written as manifest.json at
// ingest and validated at Open. Counts let tools report store shape
// without opening shards.
type Manifest struct {
	Version   int   `json:"version"`
	Docs      int   `json:"docs"`
	Shards    int   `json:"shards"`
	ShardDocs int   `json:"shard_docs"`
	Vocab     int   `json:"vocab"`
	TextBytes int64 `json:"text_bytes"`
	RawBytes  int64 `json:"raw_bytes"`
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

	shard     File
	shardBuf  *bufio.Writer
	shardIdx  int
	shardOff  uint64
	shardTOC  bufWriter
	shardDocs int

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

func (w *Writer) openShard() error {
	f, err := w.fs.Create(filepath.Join(w.dir, shardName(w.shardIdx)))
	if err != nil {
		return fmt.Errorf("store: create shard: %w", err)
	}
	w.shard = f
	w.shardBuf = bufio.NewWriterSize(f, 1<<20)
	var hdr bufWriter
	hdr.str(shardMagic)
	hdr.u32(version)
	if _, err := w.shardBuf.Write(hdr.b); err != nil {
		return err
	}
	w.shardOff = uint64(len(hdr.b))
	w.shardTOC = bufWriter{}
	w.shardTOC.u32(0) // count, patched at seal
	w.shardDocs = 0
	return nil
}

// sealShard appends the TOC and footer, fsyncs, and closes the shard
// file. Shards are synced at seal time so every shard the manifest will
// reference is durable before the manifest publish makes it reachable.
func (w *Writer) sealShard() error {
	tocOff := w.shardOff
	// Patch the entry count into the TOC header.
	var cnt bufWriter
	cnt.u32(uint32(w.shardDocs))
	copy(w.shardTOC.b[:4], cnt.b)
	if _, err := w.shardBuf.Write(w.shardTOC.b); err != nil {
		return err
	}
	var foot bufWriter
	foot.u64(tocOff)
	foot.str(footerMagic)
	if _, err := w.shardBuf.Write(foot.b); err != nil {
		return err
	}
	if err := w.shardBuf.Flush(); err != nil {
		return err
	}
	if err := w.shard.Sync(); err != nil {
		return err
	}
	return w.shard.Close()
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
// ids, growing the vocabulary; the page's distinct blocking-token ids
// are returned so callers can post them to the inverted index.
func buildRecord(id, raw string, intern func(string) uint32) (rec []byte, textLen int, blockIDs []uint32, err error) {
	c, err := markup.ParseContent(id, raw)
	if err != nil {
		return nil, 0, nil, err
	}
	block := DistinctTokens(c.Text)
	blockIDs = make([]uint32, len(block))
	for i, t := range block {
		blockIDs[i] = intern(t)
	}
	norm := similarity.NormalizedTokens(normalizeSpace(c.Text))
	normIDs := make([]uint32, len(norm))
	for i, t := range norm {
		normIDs[i] = intern(t)
	}
	var w bufWriter
	w.u32(uint32(len(id)))
	w.str(id)
	w.u32(uint32(len(c.Text)))
	w.u32(uint32(len(raw)))
	w.u32(crc32.ChecksumIEEE([]byte(raw)))
	w.u32(uint32(len(blockIDs)))
	w.u32s(blockIDs)
	w.u32(uint32(len(normIDs)))
	w.u32s(normIDs)
	w.str(raw)
	return w.b, len(c.Text), blockIDs, nil
}

// Add ingests one page: its markup is parsed (so the text length and
// token lists recorded are exactly what query-time parsing would
// produce), the record is appended to the current shard, and the
// page's blocking tokens are posted to the inverted index.
func (w *Writer) Add(id, raw string) error {
	if w.err != nil {
		return w.err
	}
	rec, textLen, blockIDs, err := buildRecord(id, raw, w.tokenID)
	if err != nil {
		return w.fail(err)
	}
	ord := w.man.Docs
	for _, tid := range blockIDs {
		w.postings[tid] = appendDelta(w.postings[tid], ord, w.lastDoc[tid])
		w.lastDoc[tid] = ord
	}

	var hdr bufWriter
	hdr.u32(uint32(len(rec)))

	w.shardTOC.u64(w.shardOff)
	w.shardTOC.u32(uint32(len(rec)))
	w.shardTOC.u32(uint32(textLen))
	w.shardTOC.u32(uint32(len(id)))
	w.shardTOC.str(id)

	if _, err := w.shardBuf.Write(hdr.b); err != nil {
		return w.fail(err)
	}
	if _, err := w.shardBuf.Write(rec); err != nil {
		return w.fail(err)
	}
	w.shardOff += uint64(4 + len(rec))
	w.shardDocs++
	w.man.Docs++
	w.man.TextBytes += int64(textLen)
	w.man.RawBytes += int64(len(raw))

	if w.shardDocs >= w.opts.ShardDocs {
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
		w.shard.Close()
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
	mb, err := json.MarshalIndent(w.man, "", "  ")
	if err != nil {
		return w.fail(err)
	}
	if err := atomicWriteFile(w.fs, filepath.Join(w.dir, manifestName), append(mb, '\n')); err != nil {
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
	path := filepath.Join(w.dir, indexName)
	f, err := w.fs.Create(path + ".tmp")
	if err != nil {
		return err
	}
	buf := bufio.NewWriterSize(f, 1<<20)

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
	if _, err := buf.Write(hdr.b); err != nil {
		f.Close()
		return err
	}
	if _, err := buf.Write(offs.b); err != nil {
		f.Close()
		return err
	}
	for _, run := range w.postings {
		if _, err := buf.Write(run); err != nil {
			f.Close()
			return err
		}
	}
	if err := buf.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := w.fs.Rename(path+".tmp", path); err != nil {
		return err
	}
	return w.fs.SyncDir(w.dir)
}
