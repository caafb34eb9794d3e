package feature

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"iflex/internal/markup"
	"iflex/internal/text"
)

// memoPages are record pages carrying every kind of mark-up and label the
// built-in features look at, the last with a header and a link nested in
// another.
func memoPages() []*text.Document {
	var docs []*text.Document
	for i, src := range []string{
		`<title>Index Structures</title><ul><li><b>Query Processing</b> by <i>A. Smith</i></li><li>List: $45.00</li><li>New: $39.50</li></ul>`,
		`<b>Index Structures</b> <u>second edition</u> List: $120.00 Used: $80.25 New: $99 <a href="http://x.org/details">details here</a>`,
		`Stream Systems, <i>B. Jones and C. Wu</i>. Price: 17 New: 12 pages 351000 or 4700`,
		`<h2>List: <h3>New:</h3> 3</h2> $40 <a href="http://x.org/details/a">Used <a href="http://x.org/details/b">12</a> 100</a> 7`,
	} {
		docs = append(docs, markup.MustParse(fmt.Sprintf("m%d", i), src))
	}
	return docs
}

// memoValues are the values tried against every feature: the boolean
// domain, parameters of each parametric kind, and ones most features
// reject.
var memoValues = []string{Yes, No, DistinctYes, DistinctNo, Unknown, "List:", "New:", "3", "40", "100", `\$\d+`, "details", "(", ""}

// randomSpan draws the whole page or a token-aligned sub-span of it.
func randomSpan(r *rand.Rand, d *text.Document) text.Span {
	s := d.WholeSpan()
	if n := s.NumTokens(); n > 0 && r.Intn(4) > 0 {
		i := r.Intn(n)
		s = s.TokenSpan(i, i+1+r.Intn(n-i))
	}
	return s
}

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// memoSpans lists the whole page — which starts with a line break, so it is
// not token-aligned — and every token-aligned sub-span of it.
func memoSpans(d *text.Document) []text.Span {
	spans := []text.Span{d.WholeSpan()}
	d.WholeSpan().SubSpans(func(s text.Span) bool {
		spans = append(spans, s)
		return true
	})
	return spans
}

// TestMemoEqualsDirect: through the tables every built-in feature answers
// as it does directly, for every value and every span of memoSpans, first
// on fresh tables (the first question about a page builds its list) and
// then on warm ones, where every answer is a hit. An error comes back each
// time and is never kept.
func TestMemoEqualsDirect(t *testing.T) {
	memo := NewMemo()
	hits, errs := 0, 0
	for _, d := range memoPages() {
		spans := memoSpans(d)
		for _, name := range reg.Names() {
			f := feat(t, name)
			for _, v := range memoValues {
				type answer struct {
					ok   bool
					as   []text.Assignment
					verr error
					rerr error
				}
				want := make([]answer, len(spans))
				for i, s := range spans {
					want[i].ok, want[i].verr = f.Verify(s, v)
					want[i].as, want[i].rerr = f.Refine(s, v)
				}
				for pass := 0; pass < 2; pass++ {
					for i, s := range spans {
						w := want[i]
						ok, vhit, verr := memo.Verify(f, s, v)
						as, rhit, rerr := memo.Refine(f, s, v)
						if ok != w.ok || !sameErr(verr, w.verr) || !slices.Equal(as, w.as) || !sameErr(rerr, w.rerr) {
							t.Fatalf("%s(%v)=%q pass %d: memo %v/%v, %v/%v; direct %v/%v, %v/%v",
								name, s, v, pass, ok, verr, as, rerr, w.ok, w.verr, w.as, w.rerr)
						}
						if pass == 1 && (vhit != (verr == nil) || rhit != (rerr == nil)) {
							t.Fatalf("%s(%v)=%q: warm call hit=%v/%v with errors %v/%v", name, s, v, vhit, rhit, verr, rerr)
						}
						if vhit {
							hits++
						}
						if verr != nil {
							errs++
						}
					}
				}
			}
		}
	}
	if hits == 0 || errs == 0 || memo.Bytes() == 0 {
		t.Fatalf("weak draw: %d hits, %d errors, %d bytes counted", hits, errs, memo.Bytes())
	}
}

// TestMemoBytesMatchHeldHeap: a table charges what it holds. Every value of
// memoValues under every built-in, asked of ten copies of the memo and
// coverage pages, builds one region list per (page, constraint); the live
// heap the tables add, measured after a collection, stays within 15 % of
// Memo.Bytes(). The languages are parsed in a first round whose tables are
// then evicted: they are the memo's, kept across evictions, and no table's.
func TestMemoBytesMatchHeldHeap(t *testing.T) {
	var docs []*text.Document
	for i := 0; i < 10; i++ {
		for j, src := range coveragePages {
			docs = append(docs, markup.MustParse(fmt.Sprintf("c%d.%d", i, j), src))
		}
		docs = append(docs, memoPages()...)
	}
	memo := NewMemo()
	ask := func() {
		for _, d := range docs {
			for _, name := range reg.Names() {
				for _, v := range memoValues {
					memo.Refine(feat(t, name), d.WholeSpan(), v)
				}
			}
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties the pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ask()
	memo.Evict(math.MaxInt64)
	before := live()
	ask()
	held := int64(live()) - int64(before)
	runtime.KeepAlive(memo)
	t.Logf("tables charge %d bytes and hold %d", memo.Bytes(), held)
	if c := float64(memo.Bytes()); c < 0.85*float64(held) || c > 1.15*float64(held) {
		t.Errorf("tables charge %d bytes and hold %d", memo.Bytes(), held)
	}
}

// TestRegionListsOrdered: over the whole page every built-in lists its
// regions sorted by start with ends that never decrease — but for the
// languages pinned to region starts — which is what lets a table
// binary-search them.
func TestRegionListsOrdered(t *testing.T) {
	var pages []*text.Document
	pages = append(pages, memoPages()...)
	for i, src := range coveragePages {
		pages = append(pages, markup.MustParse(fmt.Sprintf("c%d", i), src))
	}
	pages = append(pages,
		markup.MustParse("links", `<a href="http://x.org/a">outer <a href="http://x.org/b">inner</a> tail</a> <a href="http://x.org/c">next</a>`),
		markup.MustParse("headers", `<h1>Books <h2>New <h3>Used</h3> old</h2> now</h1> 12 <h2>New</h2> 40`))
	lists := 0
	for _, d := range pages {
		for _, name := range reg.Names() {
			b := feat(t, name).(*builtin)
			for _, v := range append(memoValues, append(coverageValues(t, name), "x.org", "books")...) {
				l, err := b.lang(v)
				if err != nil {
					continue
				}
				rs := l.list(nil, d)
				for i := 1; i < len(rs); i++ {
					if rs[i].start < rs[i-1].start || !l.pinStart && rs[i].end < rs[i-1].end {
						t.Fatalf("%s=%q on %s: regions %v out of order at %d", name, v, d.ID(), rs, i)
					}
				}
				lists++
			}
		}
	}
	if lists < 500 {
		t.Fatalf("only %d lists checked", lists)
	}
}

// TestMemoDocumentsByHandle: two documents with one id never share a
// record, dropping by id drops every handle of it, and evicting forgets the
// rest while interned ids stay what they were.
func TestMemoDocumentsByHandle(t *testing.T) {
	a := markup.MustParse("same", "<b>10</b> apples")
	b := markup.MustParse("same", "10 <b>apples</b>")
	other := markup.MustParse("other", "<b>20</b> pears")
	memo := NewMemo()
	bold := feat(t, "bold-font")
	for _, d := range []*text.Document{a, b, other} {
		ok, hit, err := memo.Verify(bold, d.Span(0, 2), Yes)
		if err != nil || hit || ok != (d != b) {
			t.Fatalf("%s %q: bold=%v hit=%v err=%v", d.ID(), d.Text(), ok, hit, err)
		}
		vals, parsed := memo.Doc(d).Values(text.ContainOf(d.WholeSpan()))
		if parsed != 3 || len(vals) != 3 || !vals[0].IsNum || vals[1].Str != d.Text() {
			t.Fatalf("%s: values %+v, %d parsed", d.ID(), vals, parsed)
		}
		if again, parsed := memo.Doc(d).Values(text.ContainOf(d.WholeSpan())); parsed != 0 || &again[0] != &vals[0] {
			t.Fatalf("%s: second read parsed %d values or got a record of its own", d.ID(), parsed)
		}
		if exact, parsed := memo.Doc(d).Values(text.ExactOf(d.WholeSpan())); parsed != 1 || exact[0].Str != d.Text() {
			t.Fatalf("%s: exact(whole) read the contain record: %+v", d.ID(), exact)
		}
	}
	id, before := memo.Intern("bold-font", Yes), memo.Bytes()
	if n := memo.DropDocs(map[string]bool{"same": true}); n != 2 || memo.Bytes() >= before || memo.Bytes() <= 0 {
		t.Fatalf("dropped %d tables of id same (want 2), bytes %d -> %d", n, before, memo.Bytes())
	}
	if _, hit, _ := memo.Verify(bold, other.Span(0, 2), Yes); !hit {
		t.Error("dropping one id lost another document's records")
	}
	if _, hit, _ := memo.Verify(bold, a.Span(0, 2), Yes); hit {
		t.Error("a dropped document still has records")
	}
	if freed := memo.Evict(math.MaxInt64); freed <= 0 || memo.Bytes() != 0 {
		t.Errorf("evicting everything freed %d bytes and left %d", freed, memo.Bytes())
	}
	if _, hit, _ := memo.Verify(bold, other.Span(0, 2), Yes); hit || memo.Intern("bold-font", Yes) != id {
		t.Error("Evict kept a record or renumbered a constraint")
	}
}

// TestMemoEvictsLeastRecentlyUsed: Evict forgets the tables handed out
// longest ago first, the oldest table first among those of one tick, stops
// once it has freed what was asked, and a table it forgot while a caller
// held it charges the memo nothing more.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	bold := feat(t, "bold-font")
	var docs []*text.Document
	for i := 0; i < 4; i++ {
		docs = append(docs, markup.MustParse(fmt.Sprintf("d%d", i), "<b>10</b> apples and pears"))
	}
	memo := NewMemo()
	use := func(i int) *DocRecords {
		tab := memo.Doc(docs[i])
		if _, _, err := tab.Verify(bold, memo.Intern("bold-font", Yes), docs[i].Span(0, 2), Yes); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	use(0)
	use(1)
	held := use(2)
	memo.Tick()
	use(3)
	use(0)
	// Ages now: d1 and d2 at tick 0 (d1 made first), then d0 and d3.
	has := func(i int) bool {
		_, hit, _ := memo.Verify(bold, docs[i].Span(0, 2), Yes)
		return hit
	}
	total := memo.Bytes()
	if freed := memo.Evict(1); freed <= 0 || memo.Bytes() != total-freed {
		t.Fatalf("Evict(1) freed %d of %d bytes and left %d", freed, total, memo.Bytes())
	}
	if has(1) {
		t.Fatal("d1, the oldest table of the oldest tick, survived")
	}
	if !has(0) || !has(2) || !has(3) {
		t.Fatal("Evict(1) took more than one table")
	}
	// d1 came back and d2 was stamped at tick 1; d0 and d3 move on to 2.
	memo.Tick()
	use(0)
	use(3)
	before := memo.Bytes()
	freed := memo.Evict(1)
	after := memo.Bytes()
	if _, _, err := held.Verify(bold, memo.Intern("bold-font", Yes), docs[2].Span(3, 9), Yes); err != nil {
		t.Fatal(err)
	}
	if freed <= 0 || after != before-freed || memo.Bytes() != after {
		t.Errorf("evicting freed %d of %d bytes, leaving %d; a publication to the forgotten table left %d", freed, before, after, memo.Bytes())
	}
	if has(2) || !has(1) {
		t.Error("Evict(1) at tick 2 did not take d2, the older of the two tables last used at tick 1")
	}
}

// TestMemoValuesOwnTheirStrings: a record's strings are copies, so a
// released lazy page is not kept alive by them, and reading the record
// again loads nothing.
func TestMemoValuesOwnTheirStrings(t *testing.T) {
	const body = "Cozy house  \n 42 High St"
	loads := 0
	d := text.NewLazyDocument("lazy", len(body), func() (text.DocContent, error) {
		loads++
		return text.DocContent{Text: strings.Clone(body)}, nil
	})
	memo := NewMemo()
	a := text.ContainOf(d.Span(0, 10))
	vals, _ := memo.Doc(d).Values(a)
	page := d.Text()
	for _, v := range vals {
		if inside(page, v.Str) {
			t.Fatalf("value %q is a slice of the page", v.Str)
		}
	}
	if want := []string{"Cozy", "Cozy house", "house"}; len(vals) != 3 || vals[0].Str != want[0] || vals[1].Str != want[1] || vals[2].Str != want[2] {
		t.Fatalf("values %+v, want %q", vals, want)
	}
	d.Release()
	if again, parsed := memo.Doc(d).Values(a); parsed != 0 || len(again) != 3 || loads != 1 || d.Loaded() {
		t.Fatalf("reading a published record: %d parsed, %d loads, page loaded=%v", parsed, loads, d.Loaded())
	}
}

// inside reports whether sub's bytes lie within s's.
func inside(s, sub string) bool {
	p, q := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(sub)))
	return sub != "" && q >= p && q < p+uintptr(len(s))
}

// TestMemoConcurrent has eight goroutines ask overlapping questions of the
// same three documents at once (run under -race): everyone reads what
// direct evaluation says, and afterwards every question is a hit. A second
// round does the same while another goroutine ticks and evicts: answers
// stay right, and Bytes is what the tables left in the memo hold.
func TestMemoConcurrent(t *testing.T) {
	docs := memoPages()
	names := []string{"bold-font", "numeric", "preceded-by", "max-tokens", "matches", "in-list"}
	type question struct {
		f Feature
		s text.Span
		v string
	}
	r := rand.New(rand.NewSource(5))
	var qs []question
	for i := 0; i < 300; i++ {
		qs = append(qs, question{feat(t, names[r.Intn(len(names))]), randomSpan(r, docs[r.Intn(len(docs))]), memoValues[r.Intn(len(memoValues))]})
	}
	for _, evicting := range []bool{false, true} {
		memo := NewMemo()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range qs {
					q := qs[(i+g*37)%len(qs)]
					wantOK, wantErr := q.f.Verify(q.s, q.v)
					tab, id := memo.Doc(q.s.Doc()), memo.Intern(q.f.Name(), q.v)
					if ok, _, err := tab.Verify(q.f, id, q.s, q.v); ok != wantOK || !sameErr(err, wantErr) {
						t.Errorf("%s(%v)=%q: %v/%v, direct %v/%v", q.f.Name(), q.s, q.v, ok, err, wantOK, wantErr)
					}
					wantAs, wantErr := q.f.Refine(q.s, q.v)
					if as, _, err := tab.Refine(q.f, id, q.s, q.v, nil); !slices.Equal(as, wantAs) || !sameErr(err, wantErr) {
						t.Errorf("%s(%v)=%q refines to %v/%v, direct %v/%v", q.f.Name(), q.s, q.v, as, err, wantAs, wantErr)
					}
					vals, _ := tab.Values(text.ContainOf(q.s))
					if want := buildValues(text.ContainOf(q.s)); fmt.Sprint(vals) != fmt.Sprint(want) {
						t.Errorf("values of %v: %v, direct %v", q.s, vals, want)
					}
				}
			}(g)
		}
		done := make(chan struct{})
		evicted := make(chan struct{})
		go func() {
			defer close(evicted)
			for evicting {
				select {
				case <-done:
					return
				default:
					memo.Tick()
					memo.Evict(memo.Bytes() / 2)
				}
			}
		}()
		wg.Wait()
		close(done)
		<-evicted
		if evicting {
			var held int64
			for _, tab := range memo.docs {
				held += tab.bytes
			}
			if memo.Bytes() != held {
				t.Errorf("after concurrent evictions Bytes is %d, the tables left hold %d", memo.Bytes(), held)
			}
			continue
		}
		for _, q := range qs {
			if _, hit, err := memo.Verify(q.f, q.s, q.v); err == nil && !hit {
				t.Fatalf("%s(%v)=%q was not kept", q.f.Name(), q.s, q.v)
			}
		}
	}
}

var benchSink int

// BenchmarkFeatureMemo times Verify (on every token of three pages) and
// Refine (on the whole pages and every six-token window of them) for one
// feature of each kind — a mark, a context label, the numeric test, a
// pattern — called directly, through tables that have never seen the
// constraint (dropped each time round the pages) and through tables that
// have; through a table, Refine appends to one reused slice.
func BenchmarkFeatureMemo(b *testing.B) {
	docs := memoPages()
	var tokens, pages []text.Span
	for _, d := range docs {
		w := d.WholeSpan()
		pages = append(pages, w)
		for i, n := 0, w.NumTokens(); i < n; i++ {
			tokens = append(tokens, w.TokenSpan(i, i+1))
			if i%3 == 0 {
				pages = append(pages, w.TokenSpan(i, min(i+6, n)))
			}
		}
	}
	for _, k := range []struct{ kind, name, value string }{
		{"mark", "bold-font", Yes}, {"context", "preceded-by", "List:"}, {"numeric", "numeric", Yes}, {"pattern", "matches", `\$\d+`},
	} {
		f, err := reg.Lookup(k.name)
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range []string{"Verify", "Refine"} {
			spans := tokens
			if op == "Refine" {
				spans = pages
			}
			for _, mode := range []string{"direct", "miss", "hit"} {
				b.Run(k.kind+"/"+op+"/"+mode, func(b *testing.B) {
					var memo *Memo
					if mode != "direct" {
						memo = NewMemo()
					}
					var id ConsID
					if memo != nil {
						id = memo.Intern(k.name, k.value)
					}
					var buf []text.Assignment // the caller's, reused as the engine's workers do
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						s := spans[i%len(spans)]
						if mode == "miss" && i%len(spans) == 0 {
							memo.Evict(math.MaxInt64)
						}
						var ok bool
						as := buf[:0]
						switch {
						case memo == nil && op == "Verify":
							ok, _ = f.Verify(s, k.value)
						case memo == nil:
							as, _ = f.Refine(s, k.value)
						case op == "Verify":
							ok, _, _ = memo.Doc(s.Doc()).Verify(f, id, s, k.value)
						default:
							as, _, _ = memo.Doc(s.Doc()).Refine(f, id, s, k.value, as)
							buf = as
						}
						if ok {
							benchSink++
						}
						benchSink += len(as)
					}
				})
			}
		}
	}
}
