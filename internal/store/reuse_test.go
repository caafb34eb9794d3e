package store

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"iflex/internal/feature"
	"iflex/internal/markup"
	"iflex/internal/text"
)

// TestConcurrentLoadsKeepContent: records are read into buffers shared
// across goroutines, so a decoded page must own its bytes. Loaders decode
// different pages of storedPages (records of many sizes) under a resident
// budget of a few pages, through loadDoc and through the page handles;
// only after every load has finished is what each returned compared with
// parsing its source, so content that aliased a buffer a later read
// reused differs here.
func TestConcurrentLoadsKeepContent(t *testing.T) {
	ids, raws := storedPages(t)
	dir := t.TempDir()
	buildStore(t, dir, ids, raws, 64)
	s, err := Open(dir, OpenOptions{ResidentBudget: 4 * estBytes(2000)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const loaders = 4
	loaded := make([]text.DocContent, len(ids))
	texts := make([]string, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ids); i += loaders {
				loaded[i], errs[i] = s.loadDoc(i)
				texts[i] = s.Doc(i).Text()
			}
		}(g)
	}
	wg.Wait()
	s.TrimWait()
	if s.Releases() == 0 {
		t.Fatal("the budget never trimmed")
	}
	for i, id := range ids {
		want, err := markup.ParseContent(id, raws[i])
		if err != nil {
			t.Fatal(err)
		}
		if errs[i] != nil || !reflect.DeepEqual(loaded[i], want) || texts[i] != want.Text {
			t.Fatalf("%s: loaded %+v (%v) and text %q; parsing gives %+v", id, loaded[i], errs[i], texts[i], want)
		}
	}
}

// TestWriterAddAllocs: adding a page to a writer parses it and encodes its
// record, and what it interns makes a string only for a token new to the
// vocabulary; the write buffer is the writer's. Each run adds a fresh
// sample page, whose tokens are all but a few known by then.
func TestWriterAddAllocs(t *testing.T) {
	const runs = 200
	ids, raws := samplePages(runs + 1)
	w, err := Create(t.TempDir(), Options{ShardDocs: 2 * runs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 50; i++ { // the vocabulary's numbers and names
		if err := w.Add(fmt.Sprintf("warm-%d", i), raws[i%len(raws)]); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := w.Add(ids[next], raws[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// Parsing the page takes 12 allocations and its record one; the rest
	// is the amortized growth of the postings and the shard's TOC.
	const bound = 18
	if allocs > bound {
		t.Fatalf("Writer.Add allocated %.0f times a page, want at most %d", allocs, bound)
	}
}

// TestPageLoadReusesBuffer: once the read buffer is warm, loading a page
// allocates what the decoded page holds and no copy of its record. The
// page's text is one-letter tokens, so its record (text and a four-byte
// id per token) is three times the text it decodes to.
func TestPageLoadReusesBuffer(t *testing.T) {
	raw := "<p>" + strings.Repeat("x y ", 2000) + "</p>"
	dir := t.TempDir()
	buildStore(t, dir, []string{"p"}, []string{raw}, 1)
	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.loadDoc(0); err != nil { // warm the buffer
		t.Fatal(err)
	}
	const loads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < loads; i++ {
		if _, err := s.loadDoc(0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	rec, txt := uint64(s.meta[0].recLen), uint64(s.meta[0].textLen)
	if perLoad := (after.TotalAlloc - before.TotalAlloc) / loads; perLoad >= rec {
		t.Fatalf("a load of a %d-byte record with %d bytes of text allocated %d bytes", rec, txt, perLoad)
	}
}

// TestIndexRecordsAcrossCommit: the memo maps a store's token ids to its
// own through a table that grows on demand, one per index. A commit that
// adds tokens no memo has seen, two memos over one store (one of them
// holding other tokens first, so its ids differ), a switch to a memory
// store and back, and loaders sharing a memo all give the records the
// memo interns from the pages' text.
func TestIndexRecordsAcrossCommit(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(6)
	buildStore(t, dir, ids, raws, 4)
	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b := feature.NewMemo(), feature.NewMemo()
	b.Vocab().AppendTokens(nil, "zebra quokka the 7 alpha")
	check := func(memo *feature.Memo, idx feature.TokenIndex, docs []*text.Document) {
		t.Helper()
		for _, d := range docs {
			checkIndexRecords(t, memo, idx, d, d.Text())
		}
	}
	check(a, s, s.Docs())
	check(b, s, s.Docs())

	m, err := s.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		m.Put("page-0001", "<p>Numbat <b>Quokka</b> bilby widget 1</p>"),
		m.Put("wombat", "<p>Wombat Express, The</p>"),
		m.Put("the-only", "<i>The</i>"),
		m.Remove("page-0004"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	check(a, s, s.Docs())
	check(b, s, s.Docs())

	eager := make([]*text.Document, s.Len())
	for i, d := range s.Docs() {
		eager[i] = markup.MustParse(d.ID(), "<p>"+d.Text()+" mem-only</p>")
	}
	check(a, NewMemStore(eager), eager)
	check(a, s, s.Docs())

	shared := feature.NewMemo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range s.Docs() {
				if _, ok := shared.IndexRecords(text.ExactOf(d.WholeSpan()), s); !ok {
					t.Errorf("%s: the index did not answer", d.ID())
				}
			}
		}()
	}
	wg.Wait()
	check(shared, s, s.Docs())
}
