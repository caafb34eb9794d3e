package store

import (
	"encoding/binary"
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
