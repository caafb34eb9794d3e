package feature

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"iflex/internal/markup"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// tokenPages cover what reading ids off a page must get right: a mark cut
// inside an alphanumeric run, leading and trailing articles, non-ASCII
// bytes, digits against letters, punctuation runs, and an empty page.
var tokenPages = []string{
	`<b>Bask</b>tall HS and <i>The Basktall</i> Academy`,
	`The Godfather, The  a An  the`,
	`Café naïve 42nd Street — résumé, x<u>12</u>3 abc`,
	`<h1>A</h1> <b>an</b>the Query-Processing (2nd ed.) by J. O'Neil`,
	`  ,;  `,
	``,
}

// wantRecord is the token record of a span's text tokenised on its own,
// what every value record read off the page must equal.
func wantRecord(v *similarity.Vocab, s text.Span) similarity.Record {
	return similarity.NewRecord(v.AppendNormalized(nil, s.Text()))
}

// checkSpanIDs holds the records and the blocking set the table keeps for
// exact(s) and for every value of contain(s) to s's text tokenised on its
// own, and reports how many value records were read off the page's ids.
func checkSpanIDs(t *testing.T, memo *Memo, s text.Span) (fromPage int) {
	t.Helper()
	tab, v := memo.Doc(s.Doc()), memo.Vocab()
	for _, a := range []text.Assignment{text.ExactOf(s), text.ContainOf(s)} {
		if a.NumValues() > 4000 {
			continue
		}
		recs := tab.Records(a)
		i := 0
		a.Values(func(x text.Span) bool {
			want, got := wantRecord(v, x), recs[i]
			if !slices.Equal(got.Ord, want.Ord) || !slices.Equal(got.Set, want.Set) {
				t.Fatalf("%s of %q, value %d %q: record %v, tokenised %v", a.Mode, s.Text(), i, x.Text(), got, want)
			}
			if onPage(&tab.sim.page, got.Ord) {
				fromPage++
			}
			i++
			return true
		})
		if i != len(recs) {
			t.Fatalf("%s of %q: %d records for %d values", a.Mode, s.Text(), len(recs), i)
		}
		if got, want := tab.Block(a), similarity.AppendSet(nil, v.AppendTokens(nil, s.Text())); !slices.Equal(got, want) {
			t.Fatalf("%s of %q: blocking set %v, tokenised %v", a.Mode, s.Text(), got, want)
		}
	}
	return fromPage
}

// onPage reports whether ids is a non-empty sub-slice of the page's ids.
func onPage(p *pageTokens, ids []uint32) bool {
	for i := range p.ids {
		if len(ids) > 0 && &p.ids[i] == &ids[0] {
			return true
		}
	}
	return false
}

// TestSpanTokenIDs: on every byte span of tokenPages — aligned to tokens or
// not, empty or not — the token records and blocking sets a table reads
// off the page's ids equal the span's text tokenised on its own, and most
// value records are sub-slices of the page's ids, not copies.
func TestSpanTokenIDs(t *testing.T) {
	memo := NewMemo()
	spans, fromPage := 0, 0
	for i, src := range tokenPages {
		d := markup.MustParse(fmt.Sprintf("t%d", i), src)
		for start := 0; start <= d.Len(); start++ {
			for end := start; end <= d.Len(); end++ {
				fromPage += checkSpanIDs(t, memo, d.Span(start, end))
				spans++
			}
		}
	}
	if fromPage < spans {
		t.Fatalf("only %d value records of %d spans were read off the page's ids", fromPage, spans)
	}
}

// pageIndex answers NormTokens from the page text, as a store's index does.
type pageIndex struct{ asked int }

func (p *pageIndex) NormTokens(d *text.Document) ([]string, bool) {
	p.asked++
	return similarity.NormalizedTokens(d.Text()), true
}

// TestWholePageRecordFromIndex: an exact whole-page value that the index
// answers is built from it on every call, equals its text tokenised, and
// makes no record table; any other assignment is the tables' to answer.
func TestWholePageRecordFromIndex(t *testing.T) {
	memo, idx := NewMemo(), &pageIndex{}
	for i, src := range tokenPages {
		d := markup.MustParse(fmt.Sprintf("w%d", i), src)
		recs, ok := memo.IndexRecords(text.ExactOf(d.WholeSpan()), idx)
		want := wantRecord(memo.Vocab(), d.WholeSpan())
		if len(want.Ord) == 0 { // an index without tokens leaves the page to the table
			if ok {
				t.Fatalf("%q: the index answered without tokens", src)
			}
			continue
		}
		if !ok || len(recs) != 1 || !slices.Equal(recs[0].Ord, want.Ord) || !slices.Equal(recs[0].Set, want.Set) {
			t.Fatalf("%q: indexed records %v (ok=%t), tokenised %v", src, recs, ok, want)
		}
		if _, ok := memo.IndexRecords(text.ContainOf(d.WholeSpan()), idx); ok {
			t.Fatalf("%q: the index answered a contain assignment", src)
		}
		if _, ok := memo.IndexRecords(text.ExactOf(d.WholeSpan()), nil); ok {
			t.Fatalf("%q: answered without an index", src)
		}
	}
	if idx.asked != len(tokenPages) || memo.Bytes() != 0 {
		t.Fatalf("index asked %d times for %d pages; tables hold %d bytes", idx.asked, len(tokenPages), memo.Bytes())
	}
}

// FuzzSpanTokenIDs: on any page and any byte span of it, the records and
// blocking sets read off the page's ids equal the span's text tokenised
// on its own, for exact(span) and every value of contain(span).
func FuzzSpanTokenIDs(f *testing.F) {
	for _, src := range tokenPages {
		f.Add(src, uint16(0), uint16(len(src)))
		f.Add(src, uint16(3), uint16(9))
	}
	f.Fuzz(func(t *testing.T, src string, start, end uint16) {
		if len(src) > 400 {
			return
		}
		d, err := markup.Parse("f", src)
		if err != nil {
			return
		}
		memo := NewMemo()
		lo, hi := int(start)%(d.Len()+1), int(end)%(d.Len()+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		checkSpanIDs(t, memo, d.Span(lo, hi))
		checkSpanIDs(t, memo, d.WholeSpan())
	})
}

// TestTokenRecordsChargeWhatTheyHold: token records and page token lists
// are charged within 15 % of the live heap they add, and Evict and DropDocs
// release them: the memo's count returns to zero, and the heap falls by
// about what was charged. Tokens are interned in a first round whose
// tables are evicted: the vocabulary is the memo's, kept across evictions.
func TestTokenRecordsChargeWhatTheyHold(t *testing.T) {
	var docs []*text.Document
	for i := 0; i < 20; i++ {
		for j, src := range append(coveragePages, tokenPages...) {
			docs = append(docs, markup.MustParse(fmt.Sprintf("c%d.%d", i, j), src))
		}
	}
	memo := NewMemo()
	ask := func() {
		for _, d := range docs {
			tab := memo.Doc(d)
			d.WholeSpan().SubSpans(func(s text.Span) bool {
				if s.NumTokens() <= 3 {
					tab.Records(text.ExactOf(s))
					tab.Block(text.ExactOf(s))
				}
				return true
			})
			if sh, ok := d.WholeSpan().Shrink(); ok && sh.NumTokens() <= 12 {
				tab.Records(text.ContainOf(sh))
			}
		}
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	ask()
	memo.Evict(math.MaxInt64)
	for _, release := range []string{"Evict", "DropDocs"} {
		before := live()
		ask()
		charged, held := memo.Bytes(), live()-before
		t.Logf("%s leg: tables charge %d bytes and hold %d", release, charged, held)
		if c := float64(charged); c < 0.85*float64(held) || c > 1.15*float64(held) {
			t.Errorf("tables charge %d bytes and hold %d", charged, held)
		}
		if release == "Evict" {
			memo.Evict(math.MaxInt64)
		} else {
			ids := map[string]bool{}
			for _, d := range docs {
				ids[d.ID()] = true
			}
			memo.DropDocs(ids)
		}
		if freed := live() - before; memo.Bytes() != 0 || float64(freed) > 0.15*float64(held) {
			t.Errorf("after %s the memo counts %d bytes and %d of %d held stay live", release, memo.Bytes(), freed, held)
		}
	}
	runtime.KeepAlive(docs)
}
