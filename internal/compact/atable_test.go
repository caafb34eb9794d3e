package compact

import (
	"fmt"
	"strings"
	"testing"

	"iflex/internal/markup"
)

func TestATableStringRendering(t *testing.T) {
	d := markup.MustParse("d", "Alice 5 6")
	at := NewATable("name", "age")
	at.Tuples = append(at.Tuples, ATuple{
		Maybe: true,
		Cells: []ACell{{span(d, "Alice")}, {span(d, "5"), span(d, "6")}},
	})
	out := at.String()
	for _, want := range []string{"(name, age)", `"Alice"`, `"5"`, `"6"`, "?"} {
		if !strings.Contains(out, want) {
			t.Errorf("a-table string missing %q:\n%s", want, out)
		}
	}
}

func TestToCompactPreservesMaybe(t *testing.T) {
	d := markup.MustParse("d", "x y")
	at := NewATable("v")
	at.Tuples = append(at.Tuples,
		ATuple{Maybe: true, Cells: []ACell{{span(d, "x")}}},
		ATuple{Cells: []ACell{{span(d, "y")}}},
	)
	ct := at.ToCompact()
	if !ct.Tuples[0].Maybe || ct.Tuples[1].Maybe {
		t.Errorf("maybe flags lost:\n%s", ct)
	}
}

func TestToATableEmptyTable(t *testing.T) {
	tb := NewTable("a", "b")
	at := tb.ToATable()
	if len(at.Tuples) != 0 || len(at.Cols) != 2 {
		t.Errorf("empty conversion = %+v", at)
	}
	back := at.ToCompact()
	if len(back.Tuples) != 0 {
		t.Errorf("round trip of empty table = %+v", back)
	}
}

func TestWorldsOfEmptyTable(t *testing.T) {
	at := NewATable("v")
	worlds, err := at.Worlds(10)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one world: the empty relation.
	if len(worlds) != 1 || !worlds[World{}.Canonical()] {
		t.Errorf("worlds of empty table = %v", worlds)
	}
}

func TestWorldsTupleWithEmptyCell(t *testing.T) {
	d := markup.MustParse("d", "x")
	at := NewATable("a", "b")
	at.Tuples = append(at.Tuples, ATuple{Cells: []ACell{{span(d, "x")}, {}}})
	worlds, err := at.Worlds(10)
	if err != nil {
		t.Fatal(err)
	}
	// A non-maybe tuple with an impossible cell contributes no worlds.
	if len(worlds) != 0 {
		t.Errorf("worlds = %v", worlds)
	}
}

// BenchmarkCompactVsATable: the representation-size claim of Section 3.
// A from() extraction over 50 record pages is one contain cell per page in
// a compact table; ToATable spells every value out. Reported as
// values-per-assignment (higher = more packing).
func BenchmarkCompactVsATable(b *testing.B) {
	tb := NewTable("x", "t")
	for i := 0; i < 50; i++ {
		d := markup.MustParse(fmt.Sprintf("m%d", i),
			fmt.Sprintf("<b>Movie number %d</b><br>Year: %d<br>Votes: <i>%d</i>", i, 1950+i, 1000*i))
		tb.Append(Tuple{Cells: []Cell{ExactCell(d.WholeSpan()), ContainCell(d.WholeSpan())}})
	}
	var packing float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		values := 0
		for _, tp := range tb.ToATable().Tuples {
			for _, cell := range tp.Cells {
				values += len(cell)
			}
		}
		packing = float64(values) / float64(tb.NumAssignments())
	}
	b.ReportMetric(packing, "values/assignment")
}
