// Package compact implements the approximate-data representations of
// Section 3 of the paper: a-tables and compact tables.
//
// An a-table cell is a multiset of possible value spans; a compact table
// cell "packs" those values into assignments — exact(s) for a single value,
// contain(s) for all token-aligned sub-spans of s — and may be an
// *expansion cell*, which stands for one tuple per encoded value rather
// than one tuple with an uncertain value. A tuple may be a *maybe* tuple
// ('?'), meaning each possible relation may or may not include it.
package compact

import (
	"fmt"
	"sort"
	"strings"

	"iflex/internal/text"
)

// Cell is one cell of a compact tuple: a multiset of assignments,
// optionally flagged as an expansion cell.
type Cell struct {
	Assigns []text.Assignment
	Expand  bool
}

// ExactCell returns a plain cell holding exactly the given span.
func ExactCell(s text.Span) Cell {
	return Cell{Assigns: []text.Assignment{text.ExactOf(s)}}
}

// ContainCell returns a plain cell encoding all sub-spans of s.
func ContainCell(s text.Span) Cell {
	return Cell{Assigns: []text.Assignment{text.ContainOf(s)}}
}

// ExpandCell returns an expansion cell over the given assignments.
func ExpandCell(as ...text.Assignment) Cell {
	return Cell{Assigns: as, Expand: true}
}

// NumValues returns the number of values the cell encodes, counting each
// assignment's value set (duplicates across assignments are not collapsed;
// cells are multisets).
func (c Cell) NumValues() int {
	n := 0
	for _, a := range c.Assigns {
		n += a.NumValues()
	}
	return n
}

// Values enumerates every value span the cell encodes, in assignment order.
// Enumeration stops early when fn returns false.
func (c Cell) Values(fn func(text.Span) bool) {
	stop := false
	for _, a := range c.Assigns {
		if stop {
			return
		}
		a.Values(func(s text.Span) bool {
			if !fn(s) {
				stop = true
				return false
			}
			return true
		})
	}
}

// Singleton returns the cell's single value span when the cell encodes
// exactly one value, and ok=false otherwise.
func (c Cell) Singleton() (text.Span, bool) {
	if len(c.Assigns) == 1 && c.Assigns[0].Mode == text.Exact {
		return c.Assigns[0].Span, true
	}
	if c.NumValues() != 1 {
		return text.Span{}, false
	}
	var out text.Span
	c.Values(func(s text.Span) bool { out = s; return false })
	return out, true
}

// Covers reports whether the cell's value set includes v.
func (c Cell) Covers(v text.Span) bool {
	for _, a := range c.Assigns {
		if a.Covers(v) {
			return true
		}
	}
	return false
}

// CoversTextValue reports whether some value of the cell has the given
// normalised text.
func (c Cell) CoversTextValue(txt string) bool {
	found := false
	c.Values(func(s text.Span) bool {
		if s.NormText() == txt {
			found = true
			return false
		}
		return true
	})
	return found
}

// Clone returns a deep copy of the cell.
func (c Cell) Clone() Cell {
	as := make([]text.Assignment, len(c.Assigns))
	copy(as, c.Assigns)
	return Cell{Assigns: as, Expand: c.Expand}
}

// Dedup returns the cell with duplicate and subsumed assignments removed.
func (c Cell) Dedup() Cell {
	return Cell{Assigns: text.DedupAssignments(c.Assigns), Expand: c.Expand}
}

// String renders the cell canonically, prefixing expansion cells with
// "expand".
func (c Cell) String() string {
	if c.Expand {
		return "expand(" + text.FormatAssignments(c.Assigns) + ")"
	}
	return text.FormatAssignments(c.Assigns)
}

// Tuple is a compact tuple: one cell per column, optionally maybe ('?').
type Tuple struct {
	Cells []Cell
	Maybe bool
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	cs := make([]Cell, len(t.Cells))
	for i, c := range t.Cells {
		cs[i] = c.Clone()
	}
	return Tuple{Cells: cs, Maybe: t.Maybe}
}

// Copy returns a tuple with a fresh Cells slice whose cells share the
// underlying assignment slices. The engine treats assignment slices as
// immutable (cells are only ever replaced wholesale, never edited in
// place), so Copy is the allocation-free substitute for Clone on hot
// paths; use Clone when assignments will be mutated.
func (t Tuple) Copy() Tuple {
	cs := make([]Cell, len(t.Cells))
	copy(cs, t.Cells)
	return Tuple{Cells: cs, Maybe: t.Maybe}
}

// String renders the tuple like (cell, cell, ...) with a trailing ? for
// maybe tuples. Table.RenderRows renders whole tables the same way.
func (t Tuple) String() string { return (&renderer{str: text.Assignment.String}).row(t) }

// renderer renders tuples as Tuple.String does. str renders one
// assignment like Assignment.String; the scratch slices are reused from
// row to row.
type renderer struct {
	str   func(text.Assignment) string
	as    []text.Assignment // one cell's assignments, sorted
	parts []string          // the row's pieces, joined at the end
}

// row collects t's pieces, each cell's assignments in canonical order,
// and joins them into one string allocated at the row's length.
func (r *renderer) row(t Tuple) string {
	p := append(r.parts[:0], "(")
	for i, c := range t.Cells {
		if i > 0 {
			p = append(p, ", ")
		}
		if c.Expand {
			p = append(p, "expand(")
		}
		r.as = append(r.as[:0], c.Assigns...)
		text.SortAssignments(r.as)
		p = append(p, "{")
		for j, a := range r.as {
			if j > 0 {
				p = append(p, ", ")
			}
			p = append(p, r.str(a))
		}
		p = append(p, "}")
		if c.Expand {
			p = append(p, ")")
		}
	}
	p = append(p, ")")
	if t.Maybe {
		p = append(p, " ?")
	}
	r.parts = p
	return strings.Join(p, "")
}

// NumExpanded returns how many expansion-free compact tuples this tuple
// stands for: the product of value counts over its expansion cells.
func (t Tuple) NumExpanded() int {
	n := 1
	for _, c := range t.Cells {
		if c.Expand {
			n *= c.NumValues()
		}
	}
	return n
}

// ExpandCells converts the tuple into the equivalent multiset of tuples
// with no expansion cells: each expansion cell is replaced by exact(v) for
// every value v it encodes (Section 3). The result preserves Maybe.
func (t Tuple) ExpandCells() []Tuple {
	out := []Tuple{t.Clone()}
	for i := range t.Cells {
		if !t.Cells[i].Expand {
			continue
		}
		var next []Tuple
		for _, partial := range out {
			partial.Cells[i].Values(func(v text.Span) bool {
				nt := partial.Clone()
				nt.Cells[i] = ExactCell(v)
				next = append(next, nt)
				return true
			})
		}
		out = next
	}
	return out
}

// Table is a compact table: named columns plus a multiset of tuples.
type Table struct {
	Cols   []string
	Tuples []Tuple
	// Degraded, when non-nil, marks this table as a best-effort partial
	// result and reports what was skipped (deadline cuts, quarantined
	// documents). It is attached only to top-level results handed to the
	// caller, never to cached intermediates, and is ignored by the
	// structural comparisons in version.go.
	Degraded *Degraded
}

// NewTable returns an empty table with the given column names.
func NewTable(cols ...string) *Table {
	cp := make([]string, len(cols))
	copy(cp, cols)
	return &Table{Cols: cp}
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Append adds a tuple; it must have one cell per column.
func (t *Table) Append(tp Tuple) {
	if len(tp.Cells) != len(t.Cols) {
		panic(fmt.Sprintf("compact: tuple arity %d != table arity %d", len(tp.Cells), len(t.Cols)))
	}
	t.Tuples = append(t.Tuples, tp)
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := NewTable(t.Cols...)
	out.Tuples = make([]Tuple, len(t.Tuples))
	for i, tp := range t.Tuples {
		out.Tuples[i] = tp.Clone()
	}
	return out
}

// NumExpandedTuples returns the table's size after conceptually expanding
// every expansion cell — the paper's "number of tuples in the result".
func (t *Table) NumExpandedTuples() int {
	n := 0
	for _, tp := range t.Tuples {
		n += tp.NumExpanded()
	}
	return n
}

// NumAssignments returns the total number of assignments across all cells —
// the second quantity the convergence monitor tracks (Section 5.1).
func (t *Table) NumAssignments() int {
	n := 0
	for _, tp := range t.Tuples {
		for _, c := range tp.Cells {
			n += len(c.Assigns)
		}
	}
	return n
}

// Expand returns the table with every expansion cell expanded away.
func (t *Table) Expand() *Table {
	out := NewTable(t.Cols...)
	for _, tp := range t.Tuples {
		out.Tuples = append(out.Tuples, tp.ExpandCells()...)
	}
	return out
}

// RenderRows calls fn with each tuple rendered as Tuple.String renders it,
// in table order. Each distinct assignment is formatted once per call, with
// each document's text read once for all of its assignments
// (text.FormatDistinct): a result over lazy pages under a resident budget
// loads every page once, not once per row that mentions it.
func (t *Table) RenderRows(fn func(row string)) {
	idx := map[text.Assignment]int{}
	var as []text.Assignment
	for _, tp := range t.Tuples {
		for _, c := range tp.Cells {
			for _, a := range c.Assigns {
				if _, ok := idx[a]; !ok {
					idx[a] = len(as)
					as = append(as, a)
				}
			}
		}
	}
	strs := text.FormatDistinct(as)
	r := renderer{str: func(a text.Assignment) string { return strs[idx[a]] }}
	for _, tp := range t.Tuples {
		fn(r.row(tp))
	}
}

// String renders the table with a header row; tuples are rendered in order.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s)\n", strings.Join(t.Cols, ", "))
	t.RenderRows(func(row string) {
		b.WriteString("  ")
		b.WriteString(row)
		b.WriteByte('\n')
	})
	return b.String()
}

// Canonical renders the table with tuples sorted, for comparison in tests.
func (t *Table) Canonical() string {
	lines := make([]string, 0, len(t.Tuples))
	t.RenderRows(func(row string) { lines = append(lines, row) })
	sort.Strings(lines)
	return fmt.Sprintf("(%s)\n%s", strings.Join(t.Cols, ", "), strings.Join(lines, "\n"))
}
