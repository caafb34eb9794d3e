package store

import (
	"encoding/binary"
	"fmt"

	"iflex/internal/text"
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
//	u32(textLen)                 length of the page text
//	u32(pageLen)                 length of the page part
//	u32(crc32(rest))             checksum of everything after this field
//	u32(nTokens) u32*            the text's token ids, in text order
//	page:                        the parsed page, decoded on load
//	  text                       textLen bytes
//	  u32(nMarks) (u32(kind) u32(start) u32(end))*
//	  u32(nLinks) (u32(start) u32(end) u32(targetLen) target)*
//
// TOC entry:
//
//	u64(offset)                  file offset of the record's recLen field
//	u32(recLen) u32(textLen)
//	u32(idLen) id
//
// The token list holds the page text's similarity.Tokens once; both of
// the index adapter's views derive from it (NormTokens under the article
// rule, BlockTokens sorted and deduplicated). It lives ahead of the page
// so the adapter can read a record's tokens without decoding the page
// itself. The checksum covers both, so a corrupt token list is refused
// like a corrupt page.
//
// Token index file (tokens.idx):
//
//	"IFTI" u32(version) u32(vocabCount) u32(docCount)
//	vocab: (u16(len) bytes)*     token strings, in token-id order
//	u64*(vocabCount+1)           posting-run file offsets (begin..end)
//	postings                     per token: uvarint deltas of doc ordinals
//
// The vocabulary and offset table load at Open (they are small); a
// posting run is read and decoded on every TokenPostings call, never
// cached by the store.
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
// integrity footer; 3 = records carry the parsed page instead of its
// markup, and the checksum covers the token lists and the page; 4 = one
// token list; manifest without byte counts. All files share one version
// number, so an older store must be re-ingested.
const (
	shardMagic     = "IFSH"
	footerMagic    = "IFST"
	indexMagic     = "IFTI"
	deltaMagic     = "IFDX"
	deltaFootMagic = "IFDE"
	version        = 4

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

// page appends the page part of a record: the text, then the marks and
// the links.
func (w *bufWriter) page(c text.DocContent) {
	w.str(c.Text)
	w.u32(uint32(len(c.Marks)))
	for _, m := range c.Marks {
		w.u32(uint32(m.Kind))
		w.u32(uint32(m.Start))
		w.u32(uint32(m.End))
	}
	w.u32(uint32(len(c.Links)))
	for _, l := range c.Links {
		w.u32(uint32(l.Start))
		w.u32(uint32(l.End))
		w.u32(uint32(len(l.Target)))
		w.str(l.Target)
	}
}

// page decodes a page part written by bufWriter.page whose text is
// textLen bytes; every mark and link must lie inside the text. Empty
// mark and link lists decode to nil, as the parser leaves them.
func (r *bufReader) page(textLen int) text.DocContent {
	c := text.DocContent{Text: string(r.bytes(textLen, "page text"))}
	if n := r.count(12, "marks"); n > 0 {
		c.Marks = make([]text.Mark, n)
		for i := range c.Marks {
			m := &c.Marks[i]
			m.Kind, m.Start, m.End = text.MarkKind(r.u32("mark kind")), int(r.u32("mark start")), int(r.u32("mark end"))
			r.span(m.Start, m.End, textLen)
		}
	}
	if n := r.count(12, "links"); n > 0 {
		c.Links = make([]text.Link, n)
		for i := range c.Links {
			l := &c.Links[i]
			l.Start, l.End = int(r.u32("link start")), int(r.u32("link end"))
			l.Target = string(r.bytes(int(r.u32("link target length")), "link target"))
			r.span(l.Start, l.End, textLen)
		}
	}
	return c
}

// count reads the u32 count of a list whose items take at least size
// bytes each, failing when the bytes left cannot hold them: nothing is
// allocated past the buffer.
func (r *bufReader) count(size int, what string) int {
	n := int(r.u32(what))
	if n > (len(r.b)-r.off)/size {
		r.fail(what)
		return 0
	}
	return n
}

// span fails the reader unless [start, end) lies inside a text of
// textLen bytes.
func (r *bufReader) span(start, end, textLen int) {
	if r.err == nil && (start > end || end > textLen) {
		r.err = fmt.Errorf("span [%d,%d) outside the %d-byte text at offset %d", start, end, textLen, r.off)
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
