package oracle

import (
	"fmt"
	"testing"

	"iflex/internal/compact"
	"iflex/internal/markup"
)

// BenchmarkCompactVsATable: the representation-size claim of Section 3.
// A from() extraction over 50 record pages is one contain cell per page in
// a compact table; ToATable spells every value out. Reported as
// values-per-assignment (higher = more packing).
func BenchmarkCompactVsATable(b *testing.B) {
	tb := compact.NewTable("x", "t")
	for i := 0; i < 50; i++ {
		d := markup.MustParse(fmt.Sprintf("m%d", i),
			fmt.Sprintf("<b>Movie number %d</b><br>Year: %d<br>Votes: <i>%d</i>", i, 1950+i, 1000*i))
		tb.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(d.WholeSpan()), compact.ContainCell(d.WholeSpan())}})
	}
	var packing float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		values := 0
		for _, tp := range ToATable(tb).Tuples {
			for _, cell := range tp.Cells {
				values += len(cell)
			}
		}
		packing = float64(values) / float64(tb.NumAssignments())
	}
	b.ReportMetric(packing, "values/assignment")
}
