// Package oracle is the reference semantics the engine is tested against,
// written apart from it: the a-tables of Section 3, their possible worlds
// and BAnnotate (Section 4.3). Only tests import it, and it imports neither
// the engine nor the assistant (make verify checks both).
package oracle

import (
	"fmt"
	"sort"
	"strings"

	"iflex/internal/compact"
	"iflex/internal/text"
)

// ACell is one a-table cell: a multiset of possible value spans.
type ACell []text.Span

// ATuple is an a-tuple; Maybe marks it as a "maybe a-tuple" [19].
type ATuple struct {
	Cells []ACell
	Maybe bool
}

// ATable is the classic approximate-table representation that compact
// tables condense (Section 3). BAnnotate and the possible worlds are
// defined over it.
type ATable struct {
	Cols   []string
	Tuples []ATuple
}

// NewATable returns an empty a-table with the given columns.
func NewATable(cols ...string) *ATable {
	cp := make([]string, len(cols))
	copy(cp, cols)
	return &ATable{Cols: cp}
}

// ToATable converts a compact table into the equivalent a-table: expansion
// cells are expanded into separate tuples, then each cell's assignments are
// replaced by their value sets. This can be exponentially larger than the
// compact table; it is the conversion of Definition 3.
func ToATable(t *compact.Table) *ATable {
	out := NewATable(t.Cols...)
	for _, tp := range t.Expand().Tuples {
		at := ATuple{Maybe: tp.Maybe, Cells: make([]ACell, len(tp.Cells))}
		for i, c := range tp.Cells {
			var vals ACell
			c.Values(func(s text.Span) bool {
				vals = append(vals, s)
				return true
			})
			at.Cells[i] = vals
		}
		out.Tuples = append(out.Tuples, at)
	}
	return out
}

// ToCompact converts an a-table back to a compact table with one exact
// assignment per value (no packing). Used after BAnnotate.
func (a *ATable) ToCompact() *compact.Table {
	out := compact.NewTable(a.Cols...)
	for _, at := range a.Tuples {
		tp := compact.Tuple{Maybe: at.Maybe, Cells: make([]compact.Cell, len(at.Cells))}
		for i, vals := range at.Cells {
			as := make([]text.Assignment, len(vals))
			for j, v := range vals {
				as[j] = text.ExactOf(v)
			}
			tp.Cells[i] = compact.Cell{Assigns: as}
		}
		out.Tuples = append(out.Tuples, tp)
	}
	return out
}

// String renders the a-table for debugging, values as quoted text.
func (a *ATable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s)\n", strings.Join(a.Cols, ", "))
	for _, tp := range a.Tuples {
		b.WriteString("  " + tp.String() + "\n")
	}
	return b.String()
}

// String renders one a-tuple.
func (t ATuple) String() string {
	parts := make([]string, len(t.Cells))
	for i, vals := range t.Cells {
		vs := make([]string, len(vals))
		for j, v := range vals {
			vs[j] = fmt.Sprintf("%q", v.NormText())
		}
		sort.Strings(vs)
		parts[i] = "{" + strings.Join(vs, ", ") + "}"
	}
	s := "(" + strings.Join(parts, ", ") + ")"
	if t.Maybe {
		s += " ?"
	}
	return s
}
