package store

import (
	"encoding/binary"
	"fmt"
)

// On-disk layout (all integers little-endian).
//
// Shard file (shard-NNNN.ifs):
//
//	"IFSH" u32(version)
//	record*                      one per document, in ordinal order
//	TOC                          u32(count) entry*
//	u64(tocOffset) "IFST"        12-byte footer
//
// record:
//
//	u32(recLen)                  length of everything after this field
//	u32(idLen) id
//	u32(textLen)                 length of the parsed plain text
//	u32(rawLen) u32(crc32(raw))  raw markup length + checksum
//	u32(nBlock) u32*             distinct blocking-token ids, sorted
//	u32(nNorm)  u32*             normalized whole-page token ids, in order
//	raw                          the markup source, re-parsed on load
//
// TOC entry:
//
//	u64(offset)                  file offset of the record's recLen field
//	u32(recLen) u32(textLen)
//	u32(idLen) id
//
// Token lists live ahead of the raw markup so the index adapter can read
// a record's tokens without paging in (or parsing) the page itself.
//
// Token index file (tokens.idx):
//
//	"IFTI" u32(version) u32(vocabCount) u32(docCount)
//	vocab: (u16(len) bytes)*     token strings, in token-id order
//	u64*(vocabCount+1)           posting-run file offsets (begin..end)
//	postings                     per token: uvarint deltas of doc ordinals
//
// The vocabulary and offset table load at Open (they are small); posting
// runs are read lazily per token.
//
// Delta sidecar (delta-NNNN.idx), one per committed mutation generation;
// the generation's records live in an ordinary shard file appended to
// the manifest's shard list:
//
//	"IFDX" u32(version) u32(generation)
//	u32(prevDocs) u32(newDocs)       ordinal-space size before/after
//	u32(prevVocab)                   vocabulary size before
//	u32(nTomb) u32*                  ordinals superseded/removed, sorted
//	u32(nVocab) (u16(len) bytes)*    tokens appended, in token-id order
//	u32(nPost) (u32(tokenID) u32(runLen) run)*
//	                                 per-token posting additions; each run
//	                                 is uvarint gaps over absolute ordinals
//	u32(crc32(all preceding bytes)) "IFDE"
//	                                 8-byte integrity footer: a sidecar
//	                                 without an intact footer is torn, and
//	                                 Open rolls the store back to the
//	                                 previous generation instead of
//	                                 corrupting the vocabulary chain
//
// Ordinals are append-only: a superseding record gets a new ordinal and
// the old one is tombstoned, so every posting run — base or delta —
// stays sorted and runs concatenate in generation order.
//
// Version history: 1 = original layout; 2 = delta sidecars carry the
// integrity footer (all files share one version number, so a v1 store
// must be re-ingested).
const (
	shardMagic     = "IFSH"
	footerMagic    = "IFST"
	indexMagic     = "IFTI"
	deltaMagic     = "IFDX"
	deltaFootMagic = "IFDE"
	version        = 2

	footerSize      = 12
	deltaFooterSize = 8
)

// bufReader decodes the little-endian primitives above from a byte
// slice, turning overruns into errors instead of panics so a truncated
// or corrupted file surfaces as a load fault.
type bufReader struct {
	b   []byte
	off int
	err error
}

func (r *bufReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated %s at offset %d", what, r.off)
	}
}

func (r *bufReader) u16(what string) uint16 {
	if b := r.bytes(2, what); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *bufReader) u32(what string) uint32 {
	if b := r.bytes(4, what); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *bufReader) u64(what string) uint64 {
	if b := r.bytes(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *bufReader) bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail(what)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *bufReader) u32s(n int, what string) []uint32 {
	b := r.bytes(4*n, what)
	if r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// bufWriter encodes the same primitives into an append buffer.
type bufWriter struct{ b []byte }

func (w *bufWriter) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *bufWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *bufWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *bufWriter) str(s string) { w.b = append(w.b, s...) }
func (w *bufWriter) u32s(vs []uint32) {
	for _, v := range vs {
		w.u32(v)
	}
}

// appendDelta appends one posting as a uvarint gap. prev is the previous
// ordinal (-1 before the first), so every gap is >= 1.
func appendDelta(dst []byte, ord, prev int) []byte {
	return binary.AppendUvarint(dst, uint64(ord-prev))
}

// decodePostings expands a posting run back into sorted doc ordinals, all
// in [0, docCount). The gap is bounded before it is added, so no uvarint
// can wrap the ordinal negative.
func decodePostings(b []byte, docCount int) ([]int, error) {
	var out []int
	prev := -1
	for len(b) > 0 {
		gap, n := binary.Uvarint(b)
		if n <= 0 || gap == 0 {
			return nil, fmt.Errorf("corrupt posting run")
		}
		if gap > uint64(docCount-1-prev) {
			return nil, fmt.Errorf("posting gap %d after ordinal %d out of range (%d docs)", gap, prev, docCount)
		}
		b = b[n:]
		prev += int(gap)
		out = append(out, prev)
	}
	return out, nil
}
