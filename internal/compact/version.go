package compact

// This file provides the structural identity primitives the engine's
// delta evaluation is built on. Across session iterations an operator's
// input table is recomputed, but most of its tuples are structurally
// unchanged — same cells, same assignments over the same document spans.
// Fingerprint gives a fast 64-bit hash of that structure and StructuralEq
// the exact verification, so an operator can recognise an input tuple it
// has already processed under a previous plan version and reuse the
// memoised outcome. MemBytes supports byte-budgeted caching of tables.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte folds one byte into an FNV-1a hash.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvInt folds an int into the hash, one byte at a time.
func fnvInt(h uint64, v int) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u))
		u >>= 8
	}
	return h
}

// fnvString folds a string into the hash.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// fnvBool folds a flag into the hash as one byte.
func fnvBool(h uint64, b bool) uint64 {
	if b {
		return fnvByte(h, 1)
	}
	return fnvByte(h, 0)
}

// fnvCell folds one cell's structure into the hash: the expansion flag and
// each assignment's mode and span.
func fnvCell(h uint64, c Cell) uint64 {
	h = fnvInt(fnvBool(h, c.Expand), len(c.Assigns))
	for _, a := range c.Assigns {
		h = fnvInt(h, int(a.Mode))
		if d := a.Span.Doc(); d != nil {
			h = fnvString(h, d.ID())
		}
		h = fnvInt(fnvInt(h, a.Span.Start()), a.Span.End())
	}
	return h
}

// Fingerprint hashes the tuple's structure: the maybe flag and, per cell,
// the expansion flag and each assignment's mode and span (document ID plus
// byte range). Tuples that are StructuralEq always fingerprint equally;
// the converse holds up to 64-bit collisions, so callers confirm a
// fingerprint match with StructuralEq before trusting it.
func (t Tuple) Fingerprint() uint64 {
	h := fnvInt(fnvBool(fnvOffset64, t.Maybe), len(t.Cells))
	for _, c := range t.Cells {
		h = fnvCell(h, c)
	}
	return h
}

// CellsFingerprint hashes the structure of the selected cells only —
// expansion flag and each assignment's mode and span — excluding the
// maybe flag and every other cell. It is the narrowed variant of
// Fingerprint for operators whose outcome depends on a subset of the
// tuple's columns: two tuples agreeing on those cells are processed
// identically by such an operator even when the rest of the tuple (or
// its maybe flag) differs.
func (t Tuple) CellsFingerprint(idx []int) uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, len(idx))
	for _, ci := range idx {
		if ci >= len(t.Cells) {
			h = fnvByte(h, 0xff)
			continue
		}
		h = fnvCell(h, t.Cells[ci])
	}
	return h
}

// CellsStructuralEq reports whether the selected cells of two tuples are
// structurally identical (see StructuralEq; maybe flags and unselected
// cells are ignored). The exact check behind CellsFingerprint matches.
func (t Tuple) CellsStructuralEq(o Tuple, idx []int) bool {
	for _, ci := range idx {
		if ci >= len(t.Cells) || ci >= len(o.Cells) {
			return false
		}
		if !cellEq(t.Cells[ci], o.Cells[ci]) {
			return false
		}
	}
	return true
}

// ColsFingerprint hashes the content of the selected columns across the
// whole table, in tuple order (tuple count included). Binary delta
// operators use it to pin a memo to the other side's dependency columns:
// a successor table with the identical fingerprint yields identical match
// decisions, even when the remaining columns were refined in between.
func (t *Table) ColsFingerprint(idx []int) uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, len(t.Tuples))
	for _, tp := range t.Tuples {
		h = fnvInt(h, int(tp.CellsFingerprint(idx)))
	}
	return h
}

// StructuralEq reports whether two tuples are structurally identical:
// same maybe flag and, cell for cell, the same expansion flag and the
// same assignment sequence (mode and span, spans compared by document
// identity and byte range). Structurally equal tuples are processed
// identically by every operator, which is what makes memoised outcomes
// transferable between plan versions.
func (t Tuple) StructuralEq(o Tuple) bool {
	if t.Maybe != o.Maybe || len(t.Cells) != len(o.Cells) {
		return false
	}
	for i := range t.Cells {
		if !cellEq(t.Cells[i], o.Cells[i]) {
			return false
		}
	}
	return true
}

// cellEq reports whether two cells have the same expansion flag and the
// same assignment sequence. Operators share assignment slices between
// input and output tuples (Tuple.Copy), so cells of successive table
// versions usually alias the very same backing array.
func cellEq(a, b Cell) bool {
	if a.Expand != b.Expand || len(a.Assigns) != len(b.Assigns) {
		return false
	}
	if len(a.Assigns) > 0 && &a.Assigns[0] == &b.Assigns[0] {
		return true
	}
	for j := range a.Assigns {
		if x, y := a.Assigns[j], b.Assigns[j]; x.Mode != y.Mode || !x.Span.Equal(y.Span) {
			return false
		}
	}
	return true
}

// StructuralEq reports whether two tables are structurally identical:
// same columns and, position by position, structurally equal tuples. The
// engine's adoption compares a node's inputs with the tables its
// predecessor read this way before handing out the predecessor's result.
func (t *Table) StructuralEq(o *Table) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || len(t.Tuples) != len(o.Tuples) ||
		len(t.Cols) != len(o.Cols) {
		return false
	}
	for i := range t.Cols {
		if t.Cols[i] != o.Cols[i] {
			return false
		}
	}
	for i := range t.Tuples {
		if !t.Tuples[i].StructuralEq(o.Tuples[i]) {
			return false
		}
	}
	return true
}

// assignmentBytes approximates the in-memory size of one assignment
// (mode + span header); spans reference shared documents, which are not
// attributed to any table.
const assignmentBytes = 32

// MemBytes estimates the table's resident size in bytes: headers plus
// per-tuple cell and assignment storage. Rows, cells and assignment slices
// shared between tables are attributed to every holder, so the estimate is
// an upper bound — the safe direction for a cache working against a byte
// budget.
func (t *Table) MemBytes() int64 {
	b := int64(48) // table header
	for _, c := range t.Cols {
		b += int64(len(c)) + 16
	}
	for _, tp := range t.Tuples {
		b += 32 // tuple header: cells slice + maybe flag
		for _, c := range tp.Cells {
			b += 32 + assignmentBytes*int64(len(c.Assigns))
		}
	}
	return b
}
