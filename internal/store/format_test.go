package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// uvarints encodes gaps as a posting run, bypassing appendDelta's
// ordinal arithmetic so a test can write gaps no writer would.
func uvarints(gaps ...uint64) []byte {
	var b []byte
	for _, g := range gaps {
		b = binary.AppendUvarint(b, g)
	}
	return b
}

// TestDecodePostingsRejectsWrappingGap: a gap larger than the ordinals
// left in [0, docCount) is corrupt, however it would wrap once added. A
// gap of 2^64-1 used to decode to the ordinal -2, and a gap of 2^63 after
// ordinal 2 to a large negative one; either would index a tombstone slice
// out of range.
func TestDecodePostingsRejectsWrappingGap(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  []byte
	}{
		{"max uvarint", uvarints(math.MaxUint64)},
		{"2^63 after 3", uvarints(3, 1<<63)},
		{"one past the end", uvarints(4, 7)},
		{"first ordinal at docCount", uvarints(11)},
	} {
		if out, err := decodePostings(tc.run, 10); err == nil {
			t.Errorf("%s: decoded %v, want an error", tc.name, out)
		}
	}
	if out, err := decodePostings(uvarints(1, 9), 10); err != nil || !slices.Equal(out, []int{0, 9}) {
		t.Fatalf("run ending on the last ordinal: %v, %v", out, err)
	}
}

// TestOpenTokenIndexBoundsVocabCount: the header's vocabulary count is
// checked against the file's size before anything is allocated for it. A
// short file claiming 2^20 or 2^32-1 tokens must fail without allocating
// per-token state.
func TestOpenTokenIndexBoundsVocabCount(t *testing.T) {
	for _, count := range []uint32{1 << 20, math.MaxUint32} {
		var w bufWriter
		w.str(indexMagic)
		w.u32(version)
		w.u32(count)
		w.u32(1) // docCount
		w.u16(1)
		w.str("a")
		w.u64(0)
		w.u64(0)
		path := filepath.Join(t.TempDir(), indexName)
		if err := os.WriteFile(path, w.b, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx, err := openTokenIndex(path, 1)
		runtime.ReadMemStats(&after)
		if err == nil {
			idx.close()
			t.Fatalf("vocabCount %d: opened a %d-byte index", count, len(w.b))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("vocabCount %d: allocated %d bytes before failing", count, grew)
		}
	}
}

// FuzzDecodePostings: whatever the bytes, a decoded run is strictly
// ascending and inside [0, docCount), and re-encoding it with appendDelta
// decodes to the same ordinals. The input also read as a bitmap over
// [0, docCount) gives a run appendDelta builds, which must round-trip.
// Seeds, the two wrapping gaps among them, are in testdata/fuzz.
func FuzzDecodePostings(f *testing.F) {
	f.Fuzz(func(t *testing.T, run []byte, docCount uint32) {
		dc := int(docCount)
		out, err := decodePostings(run, dc)
		if err == nil {
			for i, ord := range out {
				if ord < 0 || ord >= dc || i > 0 && ord <= out[i-1] {
					t.Fatalf("decoded %v from %x: ordinal %d out of order or range (%d docs)", out, run, ord, dc)
				}
			}
			if again, err := decodePostings(encodeOrds(out), dc); err != nil || !slices.Equal(again, out) {
				t.Fatalf("re-encoded %v decodes to %v, %v", out, again, err)
			}
		}
		var ords []int
		for i := 0; i < len(run)*8 && i < dc; i++ {
			if run[i/8]&(1<<(i%8)) != 0 {
				ords = append(ords, i)
			}
		}
		if got, err := decodePostings(encodeOrds(ords), dc); err != nil || !slices.Equal(got, ords) {
			t.Fatalf("run of %v decodes to %v, %v", ords, got, err)
		}
	})
}

func encodeOrds(ords []int) []byte {
	var b []byte
	prev := -1
	for _, ord := range ords {
		b = appendDelta(b, ord, prev)
		prev = ord
	}
	return b
}

// shardBytes builds a store of two short pages in one shard and returns
// the shard file's bytes. The pages are short so that the fuzz targets
// seeded with them stay fast.
func shardBytes(t testing.TB, dir string) []byte {
	buildStore(t, dir, []string{"p", "q"}, []string{"<b>x</b> y", "z"}, 0)
	b, err := os.ReadFile(filepath.Join(dir, shardName(0)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReadTOCRejectsRecordOutsideBody: a TOC entry must place its record
// between the shard header and the TOC. An offset of 2^64-4 used to wrap
// the end check around and pass, after which the record was read from
// file offset 0; an offset inside the 8-byte header passed too. Both
// failed only when the page was loaded. Open must refuse both.
func TestReadTOCRejectsRecordOutsideBody(t *testing.T) {
	for _, off := range []uint64{math.MaxUint64 - 3, 4} {
		dir := t.TempDir()
		b := shardBytes(t, dir)
		tocOff := binary.LittleEndian.Uint64(b[len(b)-footerSize:])
		// The first entry's offset follows the TOC's 4-byte count.
		binary.LittleEndian.PutUint64(b[tocOff+4:], off)
		if err := os.WriteFile(filepath.Join(dir, shardName(0)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, OpenOptions{}); err == nil {
			s.Close()
			t.Errorf("record offset %d: Open accepted the shard", off)
		}
	}
}

// rawIndex lays out a token index for one document as writeIndex does, each
// token's run being that document, except that the first posting run
// starts at first.
func rawIndex(toks []string, first uint64) []byte {
	var w bufWriter
	w.str(indexMagic)
	w.u32(version)
	w.u32(uint32(len(toks)))
	w.u32(1) // docCount
	for _, tok := range toks {
		w.u16(uint16(len(tok)))
		w.str(tok)
	}
	for i := range len(toks) + 1 {
		w.u64(first + uint64(i))
	}
	for range toks {
		w.b = binary.AppendUvarint(w.b, 0)
	}
	return w.b
}

// TestOpenTokenIndexChecksLayout: the first posting run starts where the
// offset table ends, and no token is listed twice. A first offset of 16
// used to pass, so token 0's run was read from the vocabulary, and a
// repeated token silently took the later id.
func TestOpenTokenIndexChecksLayout(t *testing.T) {
	end := uint64(16 + 2*3 + 8*3) // header, two one-byte tokens, three offsets
	for _, tc := range []struct {
		name  string
		toks  []string
		first uint64
		ok    bool
	}{
		{"as written", []string{"a", "b"}, end, true},
		{"first run in the header", []string{"a", "b"}, 16, false},
		{"first run inside the offsets", []string{"a", "b"}, end - 8, false},
		{"a token listed twice", []string{"a", "a"}, end, false},
	} {
		path := filepath.Join(t.TempDir(), indexName)
		if err := os.WriteFile(path, rawIndex(tc.toks, tc.first), 0o644); err != nil {
			t.Fatal(err)
		}
		idx, err := openTokenIndex(path, 1)
		if err == nil {
			idx.close()
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: openTokenIndex error %v", tc.name, err)
		}
	}
}

// FuzzReadTOC: whatever the shard bytes, readTOC fails or accepts entries
// whose records lie in [header, tocOff); it never panics, and what it
// allocates is in proportion to the file — a count read from it never
// sizes an allocation. The seed is a shard buildStore wrote.
func FuzzReadTOC(f *testing.F) {
	f.Add(shardBytes(f, f.TempDir()))
	f.Fuzz(func(t *testing.T, b []byte) {
		var s DiskStore
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.readTOC(0, bytes.NewReader(b), int64(len(b)))
		runtime.ReadMemStats(&after)
		// Each TOC entry is at least 20 bytes on disk and one docMeta in
		// memory, and appending grows the slice geometrically.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(b))+1<<20 {
			t.Fatalf("allocated %d bytes for a %d-byte shard", grew, len(b))
		}
		if err != nil {
			return
		}
		tocOff := binary.LittleEndian.Uint64(b[len(b)-footerSize:])
		for _, m := range s.meta {
			if m.offset < uint64(len(shardMagic)+4) || m.offset > tocOff || tocOff-m.offset < 4+uint64(m.recLen) {
				t.Fatalf("doc %q record [%d,+%d) outside [8,%d)", m.id, m.offset, 4+uint64(m.recLen), tocOff)
			}
		}
	})
}

// FuzzOpenTokenIndex: whatever the index bytes, openTokenIndex fails or
// returns an index in the writer's layout — every token listed once under
// its own id, the first posting run where the offset table ends, runs in
// order inside the file — and never panics. Seeds are the index a
// buildStore store holds and rawIndex's layouts.
func FuzzOpenTokenIndex(f *testing.F) {
	dir := f.TempDir()
	shardBytes(f, dir)
	b, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(rawIndex([]string{"a", "b"}, 16+2*3+8*3))
	f.Add(rawIndex([]string{"a", "a"}, 16+2*3+8*3))
	f.Fuzz(func(t *testing.T, b []byte) {
		fh, err := os.CreateTemp(dir, indexName)
		if err != nil {
			t.Fatal(err)
		}
		path := fh.Name()
		defer os.Remove(path)
		_, err = fh.Write(b)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		docCount := 0
		if len(b) >= 16 {
			docCount = int(binary.LittleEndian.Uint32(b[12:]))
		}
		idx, err := openTokenIndex(path, docCount)
		if err != nil {
			return
		}
		defer idx.close()
		end := uint64(16 + 8*(len(idx.vocab)+1))
		for i, tok := range idx.vocab {
			if id, ok := idx.ids[tok]; !ok || id != uint32(i) {
				t.Fatalf("token %d %q has id %d, %t", i, tok, id, ok)
			}
			end += 2 + uint64(len(tok))
		}
		if len(idx.ids) != len(idx.vocab) {
			t.Fatalf("%d ids for %d tokens", len(idx.ids), len(idx.vocab))
		}
		if idx.offs[0] != end {
			t.Fatalf("first posting run at %d, offset table ends at %d", idx.offs[0], end)
		}
		for i := range idx.vocab {
			if idx.offs[i] > idx.offs[i+1] || idx.offs[i+1] > uint64(len(b)) {
				t.Fatalf("posting offsets %v out of order or past %d bytes", idx.offs, len(b))
			}
		}
	})
}

// FuzzLoadRecord: whatever a shard record holds, loadDoc fails or returns
// exactly what the record says — a text of the TOC's length, every mark
// and link inside it, re-encoding to the record's page bytes, with
// nothing after the page — and it never panics or allocates out of
// proportion to the record. The harness recomputes the checksum whenever
// the record's header is whole, so inputs get past it. Seeds are the
// records of a shard buildStore wrote and testdata/fuzz/FuzzLoadRecord.
func FuzzLoadRecord(f *testing.F) {
	dir := f.TempDir()
	b := shardBytes(f, dir)
	var seed DiskStore
	if err := seed.readTOC(0, bytes.NewReader(b), int64(len(b))); err != nil {
		f.Fatal(err)
	}
	for _, m := range seed.meta {
		f.Add(m.id, m.textLen, b[m.offset+4:m.offset+4+uint64(m.recLen)])
	}
	fh, err := os.Create(filepath.Join(dir, "record"))
	if err != nil {
		f.Fatal(err)
	}
	defer fh.Close()
	f.Fuzz(func(t *testing.T, id string, textLen uint32, rec []byte) {
		rec = slices.Clone(rec)
		reseal(rec)
		s := recordStore(t, fh, id, textLen, rec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := s.loadDoc(0)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(rec))+1<<20 {
			t.Fatalf("allocated %d bytes for a %d-byte record", grew, len(rec))
		}
		if err != nil {
			return
		}
		page, ok := recordPage(rec)
		if !ok {
			t.Fatalf("loaded a record whose lengths do not end at its page: %x", rec)
		}
		if len(c.Text) != int(textLen) {
			t.Fatalf("loaded %d bytes of text, the record says %d", len(c.Text), textLen)
		}
		var w bufWriter
		w.page(c)
		if !bytes.Equal(w.b, page) {
			t.Fatalf("loaded %+v, which re-encodes to %x, not the record's page %x", c, w.b, page)
		}
		for _, m := range c.Marks {
			if m.Start < 0 || m.Start > m.End || m.End > len(c.Text) {
				t.Fatalf("mark %+v outside the %d-byte text", m, len(c.Text))
			}
		}
		for _, l := range c.Links {
			if l.Start < 0 || l.Start > l.End || l.End > len(c.Text) {
				t.Fatalf("link %+v outside the %d-byte text", l, len(c.Text))
			}
		}
	})
}

// recordStore writes rec as the only record of the shard file fh and
// returns a store whose TOC says the record holds page id, of textLen
// bytes of text.
func recordStore(t *testing.T, fh *os.File, id string, textLen uint32, rec []byte) *DiskStore {
	if err := fh.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt(append(binary.LittleEndian.AppendUint32(nil, uint32(len(rec))), rec...), 0); err != nil {
		t.Fatal(err)
	}
	return &DiskStore{shards: []*os.File{fh}, meta: []docMeta{{recLen: uint32(len(rec)), textLen: textLen, id: id}}}
}

// TestLoadDocRejectsMisreadRecord: loadDoc must refuse a record with
// bytes after its page, a text longer than recorded, and a mark or a link
// that leaves the text, even when the checksum agrees with what the
// record holds.
func TestLoadDocRejectsMisreadRecord(t *testing.T) {
	dir := t.TempDir()
	fh, err := os.Create(filepath.Join(dir, "record"))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	build := func(raw string) []byte {
		rec, _, _, err := buildRecord("p", raw, func(string) uint32 { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	const src = `<b>x</b> <a href="u">y</a>` // text "x y"; bold [0,1), link [2,3) twice
	ok := build(src)
	if _, err := recordStore(t, fh, "p", 3, ok).loadDoc(0); err != nil {
		t.Fatalf("the record as written: %v", err)
	}
	// Offsets follow u32(idLen) and the one-byte id: textLen at 5, pageLen
	// at 9. The page part is the record's tail.
	edit := func(rec []byte, at int, v uint32) []byte {
		rec = slices.Clone(rec)
		binary.LittleEndian.PutUint32(rec[at:], v)
		return rec
	}
	page := len(ok) - int(binary.LittleEndian.Uint32(ok[9:]))
	longer := build(`<b>x</b> <a href="u">yz</a>`)
	for name, rec := range map[string][]byte{
		"a byte after the token list":    append(slices.Clone(ok), 'z'),
		"a byte after the page":          edit(append(slices.Clone(ok), 'z'), 9, uint32(len(ok)-page+1)),
		"text longer than recorded":      edit(longer, 5, 3),
		"a mark ending past the text":    edit(ok, page+3+4+8, 4),
		"a mark ending before it starts": edit(ok, page+3+4+4, 2),
		"a link ending past the text":    edit(ok, len(ok)-1-4-4, 4),
	} {
		reseal(rec)
		if _, err := recordStore(t, fh, "p", 3, rec).loadDoc(0); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

// recordPage locates the page part of a record laid out as buildRecord
// writes it: ok is false when the record's lengths overrun it or the
// page part is not pageLen bytes.
func recordPage(rec []byte) (page []byte, ok bool) {
	r := bufReader{b: rec}
	r.bytes(int(r.u32("idLen")), "id")
	r.u32("textLen")
	pageLen := int(r.u32("pageLen"))
	r.u32("crc")
	r.bytes(4*int(r.u32("nTokens")), "tokens")
	return rec[min(r.off, len(rec)):], r.err == nil && len(rec)-r.off == pageLen
}

// reseal recomputes the checksum of a record a test edited, when its
// header (u32(idLen) id textLen pageLen crc) is whole.
func reseal(rec []byte) {
	if len(rec) < 16 || uint64(binary.LittleEndian.Uint32(rec)) > uint64(len(rec)-16) {
		return
	}
	sum := 16 + int(binary.LittleEndian.Uint32(rec))
	binary.LittleEndian.PutUint32(rec[sum-4:], crc32.ChecksumIEEE(rec[sum:]))
}
