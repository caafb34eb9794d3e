package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"iflex/internal/corpus"
	"iflex/internal/markup"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

func samplePages(n int) (ids, raws []string) {
	for i := 0; i < n; i++ {
		ids = append(ids, fmt.Sprintf("page-%04d", i))
		raws = append(raws, fmt.Sprintf(
			"<title>Page %d</title>\n<h2>Section %d</h2>\n<p>The <b>Widget %d</b> costs <i>$%d.50</i> at <a href=\"http://shop/%d\">Shop %d</a>.</p>\n<ul><li>alpha beta %d</li><li>gamma</li></ul>",
			i, i%3, i, 10+i, i, i%5, i))
	}
	return ids, raws
}

func buildStore(t testing.TB, dir string, ids, raws []string, shardDocs int) {
	t.Helper()
	w, err := Create(dir, Options{ShardDocs: shardDocs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if err := w.Add(ids[i], raws[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(25)
	buildStore(t, dir, ids, raws, 7) // several shards incl. a partial one

	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 25 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Manifest().Shards != 4 {
		t.Fatalf("shards = %d", s.Manifest().Shards)
	}
	for i := range ids {
		d := s.Doc(i)
		want := markup.MustParse(ids[i], raws[i])
		if d.ID() != want.ID() || d.Len() != want.Len() {
			t.Fatalf("doc %d: ID/Len mismatch (%q/%d vs %q/%d)", i, d.ID(), d.Len(), want.ID(), want.Len())
		}
		if d.Loaded() {
			t.Fatalf("doc %d resident before first touch", i)
		}
		if d.Text() != want.Text() {
			t.Fatalf("doc %d: text mismatch", i)
		}
		if !reflect.DeepEqual(d.Marks(), want.Marks()) {
			t.Fatalf("doc %d: marks mismatch", i)
		}
		if !reflect.DeepEqual(d.Tokens(), want.Tokens()) {
			t.Fatalf("doc %d: tokens mismatch", i)
		}
		if !reflect.DeepEqual(d.Links(), want.Links()) {
			t.Fatalf("doc %d: links mismatch", i)
		}
	}
}

// TestStoredPageMatchesParse: a record stores the page ingest parsed,
// so loading it decodes exactly what parsing its source yields, and its
// token lists are exactly the tokens of the loaded text — over every
// page of a generated Books corpus and 200 DBLife pages, plus the sample
// pages (the generators write no links) and pages a leading or trailing
// article normalizes.
func TestStoredPageMatchesParse(t *testing.T) {
	ids, raws := samplePages(25)
	ids = append(ids, "article-first", "article-last", "article-only")
	raws = append(raws, "<b>The Godfather</b> Part II", "Godfather, <i>The</i>", "a")
	books := corpus.Books(corpus.BooksConfig{Records: 150, Seed: 3})
	for _, name := range []string{"Amazon", "Barnes"} {
		tb := books.Tables[name]
		for i, d := range tb.Docs {
			ids, raws = append(ids, d.ID()), append(raws, tb.Raw[i])
		}
	}
	if err := corpus.StreamDBLife(corpus.DBLifeConfig{Pages: 200, Seed: 3}, nil, func(id, src string) error {
		ids, raws = append(ids, id), append(raws, src)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	buildStore(t, dir, ids, raws, 128)
	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(ids) || len(ids) != 528 {
		t.Fatalf("store holds %d of %d pages", s.Len(), len(ids))
	}
	for i, id := range ids {
		want, err := markup.ParseContent(id, raws[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.loadDoc(i)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: loaded %+v, %v; parsing gives %+v", id, got, err, want)
		}
		d := s.Doc(i)
		if toks, ok := s.BlockTokens(d); !ok || !slices.Equal(toks, DistinctTokens(got.Text)) {
			t.Errorf("%s: BlockTokens = %v, %v; the text has %v", id, toks, ok, DistinctTokens(got.Text))
		}
		if toks, ok := s.NormTokens(d); !ok || !slices.Equal(toks, similarity.NormalizedTokens(got.Text)) {
			t.Errorf("%s: NormTokens = %v, %v; the text has %v", id, toks, ok, similarity.NormalizedTokens(got.Text))
		}
	}
}

func TestDiskStoreTokenIndexMatchesMem(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(12)
	buildStore(t, dir, ids, raws, 5)

	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	eager := make([]*text.Document, len(ids))
	for i := range ids {
		eager[i] = markup.MustParse(ids[i], raws[i])
	}
	mem := NewMemStore(eager)

	toks := map[string]bool{}
	for i, d := range s.Docs() {
		bt, ok := s.BlockTokens(d)
		if !ok {
			t.Fatalf("doc %d: BlockTokens not ok", i)
		}
		wantBT, _ := mem.BlockTokens(eager[i])
		if !reflect.DeepEqual(bt, wantBT) {
			t.Fatalf("doc %d: block tokens %v != %v", i, bt, wantBT)
		}
		nt, ok := s.NormTokens(d)
		if !ok {
			t.Fatalf("doc %d: NormTokens not ok", i)
		}
		wantNT, _ := mem.NormTokens(eager[i])
		if !reflect.DeepEqual(nt, wantNT) {
			t.Fatalf("doc %d: norm tokens %v != %v", i, nt, wantNT)
		}
		if d.Loaded() {
			t.Fatalf("doc %d: token queries paged the document in", i)
		}
		for _, tok := range bt {
			toks[tok] = true
		}
		if ord, ok := s.DocOrdinal(d); !ok || ord != i {
			t.Fatalf("doc %d: ordinal %d %v", i, ord, ok)
		}
	}
	for tok := range toks {
		got, ok := s.TokenPostings(tok)
		if !ok {
			t.Fatalf("postings(%q) not ok", tok)
		}
		want, _ := mem.TokenPostings(tok)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("postings(%q) = %v, want %v", tok, got, want)
		}
	}
	if got, ok := s.TokenPostings("zzzunseen"); !ok || got != nil {
		t.Fatalf("postings of unseen token: %v %v", got, ok)
	}
}

func TestDiskStoreResidentBudget(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(40)
	buildStore(t, dir, ids, raws, 16)

	s, err := Open(dir, OpenOptions{ResidentBudget: 4 * estBytes(120)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, d := range s.Docs() {
		_ = d.Text()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resident := 0
		for _, d := range s.Docs() {
			if d.Loaded() {
				resident++
			}
		}
		if resident < s.Len()/2 || time.Now().After(deadline) {
			if resident >= s.Len()/2 {
				t.Fatalf("budget never enforced: %d/%d resident", resident, s.Len())
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.Releases() == 0 {
		t.Fatal("no releases recorded")
	}
	// Released pages re-materialize transparently and identically.
	for i, d := range s.Docs() {
		if d.Text() != markup.MustParse(ids[i], raws[i]).Text() {
			t.Fatalf("doc %d text drifted after release/reload", i)
		}
	}
}

// A load trims before it returns: the resident estimate is never left
// above the budget, and the number of loads is a function of the touch
// sequence (pages leave in the order they were loaded), not of scheduling.
func TestDiskStoreTrimIsSynchronous(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(40)
	buildStore(t, dir, ids, raws, 16)

	var budget int64
	for i := 0; i < 10; i++ {
		budget += estBytes(len(markup.MustParse(ids[i], raws[i]).Text()))
	}
	s, err := Open(dir, OpenOptions{ResidentBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scan := func(n, passes int) int64 {
		before := s.Loads()
		for p := 0; p < passes; p++ {
			for _, d := range s.Docs()[:n] {
				_ = d.Text()
				if got := s.ResidentEstimate(); got > budget {
					t.Fatalf("resident estimate %d above the budget %d after a touch returned", got, budget)
				}
			}
		}
		return s.Loads() - before
	}
	// A scan that fits stays resident after its first pass; one that does
	// not loses each page before it comes round again.
	if got := scan(8, 3); got != 8 {
		t.Fatalf("3 passes over 8 pages under a 10-page budget loaded %d pages, want 8", got)
	}
	if got := scan(12, 3); got != 36-8 {
		t.Fatalf("3 passes over 12 pages under a 10-page budget loaded %d pages, want 28", got)
	}
}

// Loaders trim each other's pages while holding their own document's
// lock; that must neither deadlock nor leave the store over its budget.
func TestDiskStoreTrimConcurrentLoaders(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(40)
	buildStore(t, dir, ids, raws, 16)
	want := make([]string, len(ids))
	for i := range ids {
		want[i] = markup.MustParse(ids[i], raws[i]).Text()
	}

	budget := 2 * estBytes(len(want[0]))
	s, err := Open(dir, OpenOptions{ResidentBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const loaders = 8
	errs := make(chan error, loaders)
	for g := 0; g < loaders; g++ {
		go func(g int) {
			for p := 0; p < 20; p++ {
				for k := range want {
					i := (k*(g+1) + p) % len(want)
					if s.Doc(i).Text() != want[i] {
						errs <- fmt.Errorf("loader %d: doc %d text drifted", g, i)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < loaders; g++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("loaders deadlocked")
		}
	}
	s.TrimWait()
	if got := s.ResidentEstimate(); got > budget {
		t.Fatalf("resident estimate %d above the budget %d once every loader returned", got, budget)
	}
}

func TestDiskStoreCorruptShardFaultsOnLoad(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(6)
	buildStore(t, dir, ids, raws, 100)

	// Flip bytes inside doc 5's stored text.
	path := filepath.Join(dir, shardName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(b, []byte(markup.MustParse(ids[5], raws[5]).Text()))
	if off < 0 {
		t.Fatal("text of doc 5 not found in shard")
	}
	for i := 0; i < 8; i++ {
		b[off+10+i] ^= 0xFF
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err) // TOC is intact; corruption is inside a record
	}
	defer s.Close()

	// The undamaged documents still load.
	if s.Doc(0).Text() == "" {
		t.Fatal("doc 0 unreadable")
	}
	// The damaged one panics with a LoadError naming the document.
	func() {
		defer func() {
			le, ok := recover().(*text.LoadError)
			if !ok {
				t.Fatalf("expected *text.LoadError, got %v", le)
			}
			if le.Doc != ids[5] {
				t.Fatalf("fault names %q, want %q", le.Doc, ids[5])
			}
		}()
		_ = s.Doc(5).Text()
	}()
}

// flipBlockToken builds a store of the pages "alpha beta gamma" (a) and
// "delta epsilon zeta" (d) and flips the low bit of d's first token id
// in its shard record: delta's id 3 becomes gamma's 2.
func flipBlockToken(t *testing.T, dir string) {
	t.Helper()
	buildStore(t, dir, []string{"a", "d"}, []string{"alpha beta gamma", "delta epsilon zeta"}, 10)
	path := filepath.Join(dir, shardName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The record's u32(idLen) "d" is followed by textLen, the page length,
	// the checksum and nTokens, then the token ids in text order.
	off := bytes.Index(b, []byte("\x01\x00\x00\x00d"))
	if off < 0 {
		t.Fatal("record of d not found in shard")
	}
	b[off+5+16] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreCorruptTokenListRefused: one flipped bit in a stored
// token id used to be served as the page's tokens ([gamma epsilon zeta]
// with ok true) while the page itself still loaded. The checksum covers
// the token list, so both token lookups refuse the record and its load
// faults; the other page is untouched.
func TestDiskStoreCorruptTokenListRefused(t *testing.T) {
	dir := t.TempDir()
	flipBlockToken(t, dir)
	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, d := s.Doc(0), s.Doc(1)
	if toks, ok := s.BlockTokens(d); ok {
		t.Errorf("BlockTokens of the corrupt record = %v, ok", toks)
	}
	if toks, ok := s.NormTokens(d); ok {
		t.Errorf("NormTokens of the corrupt record = %v, ok", toks)
	}
	if toks, ok := s.BlockTokens(a); !ok || !reflect.DeepEqual(toks, []string{"alpha", "beta", "gamma"}) {
		t.Errorf("BlockTokens of the intact record = %v, %v", toks, ok)
	}
	if _, err := s.loadDoc(1); err == nil {
		t.Error("the corrupt record loaded")
	}
}

// TestOpenRefusesOlderVersion: a store whose manifest, or whose shard
// header, says version 3 (records holding two token lists) is refused at
// Open with the version error; it has to be re-ingested.
func TestOpenRefusesOlderVersion(t *testing.T) {
	for _, file := range []string{manifestName, shardName(0)} {
		dir := t.TempDir()
		ids, raws := samplePages(3)
		buildStore(t, dir, ids, raws, 10)
		path := filepath.Join(dir, file)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if file == manifestName {
			b = bytes.Replace(b, []byte(`"version": 4`), []byte(`"version": 3`), 1)
		} else {
			b[4] = 3 // u32(version) after "IFSH"
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, OpenOptions{})
		if err == nil {
			s.Close()
			t.Fatalf("%s at version 3: opened", file)
		}
		if !strings.Contains(err.Error(), "version 3 (want 4)") {
			t.Errorf("%s at version 3: %v", file, err)
		}
	}
}

// mutateOnce commits the standard scenario mutation (update b, remove
// c, add e) to the store at dir, bringing it to the next generation.
func mutateOnce(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, OpenOptions{FS: RealFS(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, err := s.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("b", "<li><b>Beta Redux</b><br>New: $25.00</li>"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("e", "<li><b>Epsilon Words</b><br>New: $50.00</li>"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
}

// truncateFile cuts the file at dir/name down to n bytes (n < 0 counts
// from the end).
func truncateFile(t *testing.T, dir, name string, n int) {
	t.Helper()
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n < 0 {
		n = len(b) + n
	}
	if n < 0 || n > len(b) {
		t.Fatalf("truncate %s to %d (have %d)", name, n, len(b))
	}
	if err := os.WriteFile(path, b[:n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCorruptionRecovery is the torn/truncated-file table: a damaged
// manifest fails loudly, a damaged final-generation sidecar rolls the
// store back to the previous generation, and a damaged earlier sidecar
// (which later generations build on) fails loudly. Open never misreads.
func TestOpenCorruptionRecovery(t *testing.T) {
	pages := map[string]string{
		"a": "<li><b>Alpha Systems</b><br>New: $10.00</li>",
		"b": "<li><b>Beta Design</b><br>New: $20.00</li>",
		"c": "<li><b>Gamma Theory</b><br>New: $30.00</li>",
		"d": "<li><b>Delta Rules</b><br>New: $40.00</li>",
	}
	order := []string{"a", "b", "c", "d"}

	tests := []struct {
		name    string
		gens    int // mutations committed before mangling
		mangle  func(t *testing.T, dir string)
		wantErr bool
		wantGen int    // on successful open
		wantIDs string // live view on successful open
	}{
		{
			name: "manifest missing",
			mangle: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: true,
		},
		{
			name:    "manifest truncated mid-JSON",
			mangle:  func(t *testing.T, dir string) { truncateFile(t, dir, manifestName, 40) },
			wantErr: true,
		},
		{
			name: "manifest garbage",
			mangle: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{\"version\": junk"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: true,
		},
		{
			name:    "last sidecar missing",
			gens:    1,
			mangle:  func(t *testing.T, dir string) { os.Remove(filepath.Join(dir, deltaName(1))) },
			wantGen: 0, wantIDs: "[a b c d]",
		},
		{
			name:    "last sidecar truncated to stub",
			gens:    1,
			mangle:  func(t *testing.T, dir string) { truncateFile(t, dir, deltaName(1), 3) },
			wantGen: 0, wantIDs: "[a b c d]",
		},
		{
			name:    "last sidecar torn mid-body",
			gens:    1,
			mangle:  func(t *testing.T, dir string) { truncateFile(t, dir, deltaName(1), -11) },
			wantGen: 0, wantIDs: "[a b c d]",
		},
		{
			name: "last sidecar checksum mismatch",
			gens: 1,
			mangle: func(t *testing.T, dir string) {
				path := filepath.Join(dir, deltaName(1))
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0xFF
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantGen: 0, wantIDs: "[a b c d]",
		},
		{
			name:    "second-generation sidecar torn rolls back one step",
			gens:    2,
			mangle:  func(t *testing.T, dir string) { truncateFile(t, dir, deltaName(2), -11) },
			wantGen: 1, wantIDs: "[a b d e]",
		},
		{
			name:    "earlier sidecar torn fails loudly",
			gens:    2,
			mangle:  func(t *testing.T, dir string) { truncateFile(t, dir, deltaName(1), -11) },
			wantErr: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildMutStore(t, dir, pages, order)
			for g := 0; g < tc.gens; g++ {
				if g == 0 {
					mutateOnce(t, dir) // update b, remove c, add e
				} else {
					s, err := Open(dir, OpenOptions{FS: RealFS(false)})
					if err != nil {
						t.Fatal(err)
					}
					m, err := s.BeginMutation()
					if err != nil {
						t.Fatal(err)
					}
					if err := m.Remove("b"); err != nil {
						t.Fatal(err)
					}
					if _, err := m.Commit(); err != nil {
						t.Fatal(err)
					}
					s.Close()
				}
			}
			tc.mangle(t, dir)
			s, err := Open(dir, OpenOptions{FS: RealFS(false)})
			if tc.wantErr {
				if err == nil {
					s.Close()
					t.Fatal("Open succeeded over corruption that cannot be recovered")
				}
				return
			}
			if err != nil {
				t.Fatalf("Open did not recover: %v", err)
			}
			defer s.Close()
			if s.Generation() != tc.wantGen {
				t.Fatalf("recovered to generation %d, want %d", s.Generation(), tc.wantGen)
			}
			var ids []string
			for _, d := range s.Docs() {
				ids = append(ids, d.ID())
			}
			if got := fmt.Sprint(ids); got != tc.wantIDs {
				t.Fatalf("recovered live view %v, want %v", got, tc.wantIDs)
			}
			if len(s.Recovery()) == 0 {
				t.Fatal("recovery happened but Recovery() reports nothing")
			}
			// The rollback is durable: a second open is clean and identical.
			s2, err := Open(dir, OpenOptions{FS: RealFS(false)})
			if err != nil {
				t.Fatalf("second open after rollback: %v", err)
			}
			defer s2.Close()
			if len(s2.Recovery()) != 0 {
				t.Fatalf("second open still repairing: %v", s2.Recovery())
			}
			if s2.Generation() != tc.wantGen {
				t.Fatalf("second open at generation %d", s2.Generation())
			}
		})
	}
}

// TestOpenSweepsOrphans drops crashed-commit debris next to a healthy
// store and checks Open ignores and removes it without touching
// unrelated files.
func TestOpenSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(5)
	buildStore(t, dir, ids, raws, 3)
	for _, name := range []string{"manifest.json.tmp", shardName(7), deltaName(3), "tokens.idx.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "truth.txt"), []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, OpenOptions{FS: RealFS(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if len(s.Recovery()) != 4 {
		t.Fatalf("Recovery() = %v, want 4 sweeps", s.Recovery())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range ents {
		names[e.Name()] = true
	}
	for _, gone := range []string{"manifest.json.tmp", shardName(7), deltaName(3), "tokens.idx.tmp"} {
		if names[gone] {
			t.Fatalf("orphan %s survived Open", gone)
		}
	}
	if !names["truth.txt"] {
		t.Fatal("unrelated file swept")
	}
}

func TestWriterRejectsExistingStore(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(2)
	buildStore(t, dir, ids, raws, 10)
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("Create over an existing store succeeded")
	}
}
