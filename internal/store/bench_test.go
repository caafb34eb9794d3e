package store

import (
	"math/rand"
	"testing"

	"iflex/internal/corpus"
)

// benchPages streams n DBLife pages, the page shape the store is sized
// for (a crawl of conference, personal and post pages).
func benchPages(b *testing.B, n int) (ids, raws []string) {
	if err := corpus.StreamDBLife(corpus.DBLifeConfig{Pages: n, Seed: 1}, nil, func(id, src string) error {
		ids, raws = append(ids, id), append(raws, src)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return ids, raws
}

// BenchmarkPageLoad times one page's first touch: read its record,
// verify the checksum, decode the page and build the document payload
// (tokens, lines, sorted marks). Each iteration loads one of 64 pages
// and releases it again.
func BenchmarkPageLoad(b *testing.B) {
	dir := b.TempDir()
	ids, raws := benchPages(b, 64)
	buildStore(b, dir, ids, raws, 2048)
	s, err := Open(dir, OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := s.Doc(i % s.Len())
		if d.Len() > 0 && d.Text() == "" {
			b.Fatal("empty load")
		}
		d.Release()
	}
}

// BenchmarkTrim times one touch under a resident budget of about eight
// of 64 pages, cycling through them so that every touch loads a page and
// the budget trim releases the least recently loaded one: the load of
// BenchmarkPageLoad plus the trim's LRU bookkeeping and release in place
// of the explicit Release.
func BenchmarkTrim(b *testing.B) {
	dir := b.TempDir()
	ids, raws := benchPages(b, 64)
	buildStore(b, dir, ids, raws, 2048)
	probe, err := Open(dir, OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	text := 0
	for _, d := range probe.Docs() {
		text += d.Len() // the TOC's length: nothing loads
	}
	probe.Close()
	s, err := Open(dir, OpenOptions{ResidentBudget: 8 * estBytes(text/len(ids))})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := s.Doc(i % s.Len()); d.Len() > 0 && d.Text() == "" {
			b.Fatal("empty load")
		}
	}
	b.StopTimer()
	if b.N > 64 && s.Releases() == 0 {
		b.Fatal("the budget never trimmed")
	}
}

// BenchmarkBuildRecord times encoding one page's record at ingest: parse
// the markup, tokenize the text, intern the tokens and encode the record.
func BenchmarkBuildRecord(b *testing.B) {
	ids, raws := benchPages(b, 64)
	vocab := map[string]uint32{}
	intern := func(t []byte) uint32 {
		id, ok := vocab[string(t)]
		if !ok {
			id = uint32(len(vocab))
			vocab[string(t)] = id
		}
		return id
	}
	var scratch []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ids)
		_, _, postIDs, err := buildRecord(ids[j], raws[j], intern, scratch)
		if err != nil {
			b.Fatal(err)
		}
		scratch = postIDs
	}
}

// BenchmarkDecodePostings times decoding one posting run: 1,000
// ordinals spread over a 6,000-page store.
func BenchmarkDecodePostings(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ords := make([]int, 0, 1000)
	for ord := r.Intn(6); len(ords) < cap(ords); ord += 1 + r.Intn(10) {
		ords = append(ords, ord)
	}
	run := encodeOrds(ords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodePostings(run, 6000); err != nil {
			b.Fatal(err)
		}
	}
}
