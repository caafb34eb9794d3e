package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"

	"iflex/internal/text"
)

func buildMutStore(t *testing.T, dir string, pages map[string]string, order []string) {
	t.Helper()
	w, err := Create(dir, Options{ShardDocs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range order {
		if err := w.Add(id, pages[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// postedIDs maps a token's postings to live document ids.
func postedIDs(t *testing.T, s *DiskStore, tok string) map[string]bool {
	t.Helper()
	ords, ok := s.TokenPostings(tok)
	if !ok {
		t.Fatalf("TokenPostings(%q) failed", tok)
	}
	out := map[string]bool{}
	for _, ord := range ords {
		out[s.meta[ord].id] = true
	}
	return out
}

func TestMutationGenerations(t *testing.T) {
	dir := t.TempDir()
	pages := map[string]string{
		"a": "<li><b>Alpha Systems</b><br>New: $10.00</li>",
		"b": "<li><b>Beta Design</b><br>New: $20.00</li>",
		"c": "<li><b>Gamma Theory</b><br>New: $30.00</li>",
		"d": "<li><b>Delta Rules</b><br>New: $40.00</li>",
	}
	buildMutStore(t, dir, pages, []string{"a", "b", "c", "d"})
	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	before := map[string]*text.Document{}
	for _, d := range s.Docs() {
		before[d.ID()] = d
	}

	m, err := s.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	// Update b, remove c, add e.
	if err := m.Put("b", "<li><b>Beta Redux</b><br>New: $25.00</li>"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("e", "<li><b>Epsilon Words</b><br>New: $50.00</li>"); err != nil {
		t.Fatal(err)
	}
	delta, err := m.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(delta.Added) != "[e]" || fmt.Sprint(delta.Updated) != "[b]" || fmt.Sprint(delta.Removed) != "[c]" {
		t.Fatalf("unexpected delta: %+v", delta)
	}

	check := func(s *DiskStore, label string) {
		t.Helper()
		var ids []string
		for _, d := range s.Docs() {
			ids = append(ids, d.ID())
		}
		if got := fmt.Sprint(ids); got != "[a b d e]" {
			t.Fatalf("%s: live view %v", label, got)
		}
		if s.Len() != 4 || s.NumDocs() != 6 {
			t.Fatalf("%s: Len=%d NumDocs=%d", label, s.Len(), s.NumDocs())
		}
		if got := postedIDs(t, s, "beta"); len(got) != 1 || !got["b"] {
			t.Fatalf("%s: postings for beta = %v", label, got)
		}
		if got := postedIDs(t, s, "redux"); len(got) != 1 || !got["b"] {
			t.Fatalf("%s: postings for redux = %v", label, got)
		}
		if got := postedIDs(t, s, "gamma"); len(got) != 0 {
			t.Fatalf("%s: postings for removed doc's token = %v", label, got)
		}
		if got := postedIDs(t, s, "new"); len(got) != 4 {
			t.Fatalf("%s: postings for shared token = %v", label, got)
		}
		// The updated record reads back the superseding content.
		b, ok := s.DocByID("b")
		if !ok {
			t.Fatalf("%s: DocByID(b) missing", label)
		}
		if toks, ok := s.BlockTokens(b); !ok || !contains(toks, "redux") {
			t.Fatalf("%s: BlockTokens(b) = %v %v", label, toks, ok)
		}
		// b keeps its view position, but its record's ordinal is new, and
		// the ordinal is what postings hold.
		ord, ok := s.DocOrdinal(b)
		if !ok || ord == slices.Index(s.Docs(), b) {
			t.Fatalf("%s: DocOrdinal(b) = %d, %v at view position %d", label, ord, ok, slices.Index(s.Docs(), b))
		}
		if ords, ok := s.TokenPostings("redux"); !ok || !slices.Contains(ords, ord) {
			t.Fatalf("%s: postings for redux = %v, want ordinal %d", label, ords, ord)
		}
	}
	check(s, "in-place")

	// Unchanged documents keep their handles; the updated one does not.
	for _, d := range s.Docs() {
		switch d.ID() {
		case "a", "d":
			if before[d.ID()] != d {
				t.Fatalf("unchanged doc %q lost its handle", d.ID())
			}
		case "b":
			if before["b"] == d {
				t.Fatal("updated doc b kept its stale handle")
			}
		}
	}

	// A reopened store sees the same corpus.
	s2, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "reopened")

	// Second generation: remove the update target again.
	m2, err := s2.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := postedIDs(t, s2, "redux"); len(got) != 0 {
		t.Fatalf("postings after removing updated doc = %v", got)
	}
	s3, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	var ids []string
	for _, d := range s3.Docs() {
		ids = append(ids, d.ID())
	}
	if got := fmt.Sprint(ids); got != "[a d e]" {
		t.Fatalf("gen-2 reopen live view %v", got)
	}
	if s3.Generation() != 2 {
		t.Fatalf("generation = %d", s3.Generation())
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// deltaPost is one posting record of a hand-built sidecar.
type deltaPost struct {
	tid  uint32
	ords []int
}

// rawDelta lays out a sidecar the way encodeDelta does, but with the
// posting records in the order given, repeats included: what a writer
// never writes.
func rawDelta(gen, prevDocs, newDocs, prevVocab int, posts ...deltaPost) []byte {
	var w bufWriter
	w.str(deltaMagic)
	w.u32(version)
	w.u32(uint32(gen))
	w.u32(uint32(prevDocs))
	w.u32(uint32(newDocs))
	w.u32(uint32(prevVocab))
	w.u32(0) // tombstones
	w.u32(0) // new tokens
	w.u32(uint32(len(posts)))
	for _, p := range posts {
		run := encodeOrds(p.ords)
		w.u32(p.tid)
		w.u32(uint32(len(run)))
		w.b = append(w.b, run...)
	}
	w.u32(crc32.ChecksumIEEE(w.b))
	w.str(deltaFootMagic)
	return w.b
}

// TestParseDeltaRejectsStaleOrdinal: a generation's posting runs hold its
// own new ordinals only. The index appends a delta run after the base and
// earlier runs, so an ordinal below prevDocs would make TokenPostings
// unsorted or repeat an ordinal; it used to pass because runs were only
// bounded by newDocs.
func TestParseDeltaRejectsStaleOrdinal(t *testing.T) {
	for _, ords := range [][]int{{2}, {4, 5}, {0, 6, 7}} {
		b := encodeDelta(1, 5, 3, &deltaPatch{docs: 8, posts: map[uint32][]int{1: ords}})
		if p, err := parseDelta(b, 1, 5, 3, 8); err == nil {
			t.Errorf("run %v over generation ordinals [5, 8): parsed %+v", ords, p)
		}
	}
	b := encodeDelta(1, 5, 3, &deltaPatch{docs: 8, posts: map[uint32][]int{1: {5, 7}, 2: {6}}})
	if p, err := parseDelta(b, 1, 5, 3, 8); err != nil || fmt.Sprint(p.posts) != "map[1:[5 7] 2:[6]]" || p.docs != 8 {
		t.Fatalf("a run of new ordinals: %+v, %v", p, err)
	}
}

// TestParseDeltaRejectsRepeatedTokenID: the writer sorts token ids, so a
// repeated (or descending) id is corrupt. A repeat used to replace the
// earlier run, and the blocking index missed its documents.
func TestParseDeltaRejectsRepeatedTokenID(t *testing.T) {
	for _, posts := range [][]deltaPost{
		{{1, []int{5}}, {1, []int{6}}},
		{{2, []int{5}}, {1, []int{6}}},
	} {
		if p, err := parseDelta(rawDelta(1, 5, 8, 3, posts...), 1, 5, 3, 8); err == nil {
			t.Errorf("token ids %d, %d: parsed %+v", posts[0].tid, posts[1].tid, p)
		}
	}
	if _, err := parseDelta(rawDelta(1, 5, 8, 3, deltaPost{0, []int{5}}, deltaPost{2, []int{6}}), 1, 5, 3, 8); err != nil {
		t.Fatalf("ascending token ids: %v", err)
	}
}

// TestParseDeltaChecksOrdinalChain: a sidecar's prevDocs is the ordinal
// space the previous generation left — the base documents, then each
// generation's newDocs — as prevVocab is checked against the vocabulary.
// A sidecar starting anywhere else used to pass.
func TestParseDeltaChecksOrdinalChain(t *testing.T) {
	for _, prev := range []int{3, 6} {
		b := encodeDelta(2, prev, 3, &deltaPatch{docs: 8})
		if p, err := parseDelta(b, 2, 5, 3, 8); err == nil {
			t.Errorf("prevDocs %d after a generation that left 5: parsed %+v", prev, p)
		}
	}
	if _, err := parseDelta(encodeDelta(2, 5, 3, &deltaPatch{docs: 8}), 2, 5, 3, 8); err != nil {
		t.Fatal(err)
	}
}

// TestMutateEmptyBase: a store built empty takes generations and reopens;
// its ordinal chain starts at zero base documents.
func TestMutateEmptyBase(t *testing.T) {
	dir := t.TempDir()
	buildMutStore(t, dir, nil, nil)
	for i, id := range []string{"a", "b"} {
		s, err := Open(dir, OpenOptions{})
		if err != nil {
			t.Fatalf("open before generation %d: %v", i+1, err)
		}
		m, err := s.BeginMutation()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Put(id, "<b>"+id+" page</b>"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Generation() != 2 || s.Len() != 2 || len(s.Recovery()) != 0 {
		t.Fatalf("generation %d, %d docs, recovery %v", s.Generation(), s.Len(), s.Recovery())
	}
	if got := postedIDs(t, s, "page"); len(got) != 2 {
		t.Fatalf("postings for page = %v", got)
	}
}

// The state FuzzParseDeltaFile parses against: generation 2 of a store whose
// previous generation left 5 ordinals and 6 tokens, with 9 records in its
// shards.
const fuzzGen, fuzzDocs, fuzzVocab, fuzzRecords = 2, 5, 6, 9

// FuzzParseDeltaFile: whatever the bytes, parseDelta fails or returns a
// patch the index can apply as it is — tombstones below the generation's
// first ordinal, every run strictly ascending inside [prevDocs, newDocs),
// every token id known — and re-encoding that patch parses to the same
// patch. The harness recomputes the CRC footer, so mutations reach the
// fields behind the checksum. Seeds in testdata/fuzz are sidecars
// encodeDelta wrote for this state, some of which it must refuse.
func FuzzParseDeltaFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = slices.Clone(b)
		if len(b) >= deltaFooterSize {
			body := b[:len(b)-deltaFooterSize]
			binary.LittleEndian.PutUint32(b[len(body):], crc32.ChecksumIEEE(body))
		}
		p, err := parseDelta(b, fuzzGen, fuzzDocs, fuzzVocab, fuzzRecords)
		if err != nil {
			return
		}
		if p.docs < fuzzDocs || p.docs > fuzzRecords {
			t.Fatalf("newDocs %d outside [%d, %d]", p.docs, fuzzDocs, fuzzRecords)
		}
		for _, ord := range p.tombs {
			if ord < 0 || ord >= fuzzDocs {
				t.Fatalf("tombstone %d outside [0, %d)", ord, fuzzDocs)
			}
		}
		for tid, ords := range p.posts {
			if int(tid) >= fuzzVocab+len(p.toks) {
				t.Fatalf("token id %d past the %d known", tid, fuzzVocab+len(p.toks))
			}
			for i, ord := range ords {
				if ord < fuzzDocs || ord >= p.docs || i > 0 && ord <= ords[i-1] {
					t.Fatalf("token id %d: run %v not ascending inside [%d, %d)", tid, ords, fuzzDocs, p.docs)
				}
			}
		}
		again, err := parseDelta(encodeDelta(fuzzGen, fuzzDocs, fuzzVocab, p), fuzzGen, fuzzDocs, fuzzVocab, fuzzRecords)
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("re-encoded %+v parses to %+v, %v", p, again, err)
		}
	})
}

// fullFS is a filesystem whose files fail every write past limit bytes,
// like a disk that fills up mid-commit; open counts the handles Create
// returned that are not yet closed.
type fullFS struct {
	FS
	limit int
	open  int
}

func (fs *fullFS) Create(path string) (File, error) {
	f, err := fs.FS.Create(path)
	if err != nil {
		return nil, err
	}
	fs.open++
	return &fullFile{File: f, fs: fs}, nil
}

type fullFile struct {
	File
	fs      *fullFS
	written int
}

func (f *fullFile) Write(p []byte) (int, error) {
	if f.written+len(p) > f.fs.limit {
		return 0, fmt.Errorf("disk full")
	}
	f.written += len(p)
	return f.File.Write(p)
}

func (f *fullFile) Close() error {
	f.fs.open--
	return f.File.Close()
}

// TestCommitClosesShardOnWriteError: a commit whose generation shard
// cannot be written fails and leaves no file handle open, so a long-lived
// process does not leak one per failed commit.
func TestCommitClosesShardOnWriteError(t *testing.T) {
	dir := t.TempDir()
	buildMutStore(t, dir, nil, nil)
	fs := &fullFS{FS: RealFS(false), limit: 1 << 20}
	s, err := Open(dir, OpenOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, err := s.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		page := "<p>" + strings.Repeat(fmt.Sprintf("word%d ", i), 70_000) + "</p>"
		if err := m.Put(fmt.Sprintf("big-%d", i), page); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Commit(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("commit over a full disk: %v", err)
	}
	if fs.open != 0 {
		t.Fatalf("%d file handles left open after the failed commit", fs.open)
	}
}

// TestIngestWriteErrorSticks: an ingest whose shard cannot be written
// fails the Add that seals it with a "store: ingest:" error. Every later
// Add and Close returns that same error, Close still closes the shard,
// Open refuses the directory (no manifest was published), and a fresh
// Create over it sweeps the debris and ingests.
func TestIngestWriteErrorSticks(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(4)
	fs := &fullFS{FS: RealFS(false), limit: 64}
	w, err := Create(dir, Options{ShardDocs: 2, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(ids[0], raws[0]); err != nil {
		t.Fatalf("first Add, before any write reaches the file: %v", err)
	}
	failed := w.Add(ids[1], raws[1])
	if failed == nil || !strings.HasPrefix(failed.Error(), "store: ingest: ") || !strings.Contains(failed.Error(), "disk full") {
		t.Fatalf("Add that seals the shard over a full disk: %v", failed)
	}
	if err := w.Add(ids[2], raws[2]); err != failed {
		t.Fatalf("Add after the failure: %v, want %v", err, failed)
	}
	if err := w.Close(); err != failed {
		t.Fatalf("Close after the failure: %v, want %v", err, failed)
	}
	if fs.open != 0 {
		t.Fatalf("%d file handles left open after the failed ingest", fs.open)
	}
	if _, err := Open(dir, OpenOptions{FS: RealFS(false)}); err == nil {
		t.Fatal("Open accepted the directory of a failed ingest")
	}
	buildStore(t, dir, ids, raws, 2)
	s, err := Open(dir, OpenOptions{FS: RealFS(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumDocs() != len(ids) {
		t.Fatalf("re-ingest holds %d docs, want %d", s.NumDocs(), len(ids))
	}
}
