package compact_test

// The a-table tests: the reference semantics lives in internal/oracle,
// which imports compact, so they are an external test package here.

import (
	"strings"
	"testing"

	"iflex/internal/compact"
	"iflex/internal/markup"
	"iflex/internal/oracle"
	"iflex/internal/text"
)

func span(d *text.Document, sub string) text.Span {
	i := strings.Index(d.Text(), sub)
	if i < 0 {
		panic("substring not found: " + sub)
	}
	return d.Span(i, i+len(sub))
}

// Figure 3 of the paper: the houses compact table condenses the Figure 2.e
// a-table; converting back to an a-table must reproduce the enumerated
// possible values.
func TestFigure3RoundTrip(t *testing.T) {
	x1 := markup.MustParse("x1", "Cozy house 351000 5146 2750 Vanhise High")
	tb := compact.NewTable("x", "p", "h")
	tb.Append(compact.Tuple{Cells: []compact.Cell{
		compact.ExactCell(x1.WholeSpan()),
		{Assigns: []text.Assignment{
			text.ExactOf(span(x1, "351000")),
			text.ExactOf(span(x1, "5146")),
			text.ExactOf(span(x1, "2750")),
		}},
		compact.ContainCell(span(x1, "Cozy house")),
	}})
	at := oracle.ToATable(tb)
	if len(at.Tuples) != 1 {
		t.Fatalf("a-table tuples = %d", len(at.Tuples))
	}
	pVals := at.Tuples[0].Cells[1]
	if len(pVals) != 3 {
		t.Fatalf("p values = %d", len(pVals))
	}
	hVals := at.Tuples[0].Cells[2]
	if len(hVals) != 3 { // "Cozy", "Cozy house", "house"
		t.Fatalf("h values = %v", at.Tuples[0].Cells[2])
	}
	back := at.ToCompact()
	if back.NumExpandedTuples() != 1 {
		t.Error("round-trip tuple count changed")
	}
}

// The schools side of Figure 3: one compact tuple with an expansion cell
// over two contain assignments stands for one tuple per bold sub-span.
func TestFigure3SchoolsExpansion(t *testing.T) {
	y := markup.MustParse("y", "Basktall Cherry Hills Hoover Lynneville")
	s1 := span(y, "Basktall Cherry Hills")
	s2 := span(y, "Hoover Lynneville")
	tb := compact.NewTable("s")
	tb.Append(compact.Tuple{Cells: []compact.Cell{compact.ExpandCell(text.ContainOf(s1), text.ContainOf(s2))}})
	// 3 tokens -> 6 sub-spans; 2 tokens -> 3 sub-spans.
	if got := tb.NumExpandedTuples(); got != 9 {
		t.Fatalf("expanded tuples = %d, want 9", got)
	}
	at := oracle.ToATable(tb)
	if len(at.Tuples) != 9 {
		t.Fatalf("a-table tuples = %d, want 9", len(at.Tuples))
	}
}

func TestWorldsEnumeration(t *testing.T) {
	d := markup.MustParse("d", "Alice Bob 5 6")
	at := oracle.NewATable("name", "age")
	at.Tuples = append(at.Tuples,
		oracle.ATuple{Cells: []oracle.ACell{{span(d, "Alice"), span(d, "Bob")}, {span(d, "5")}}},
		oracle.ATuple{Maybe: true, Cells: []oracle.ACell{{span(d, "Bob")}, {span(d, "6")}}},
	)
	worlds, err := at.Worlds(100)
	if err != nil {
		t.Fatal(err)
	}
	// 2 valuations for tuple 1 × (maybe tuple 2: in or out) = 4 worlds.
	if len(worlds) != 4 {
		t.Fatalf("worlds = %d, want 4: %v", len(worlds), worlds)
	}
}

func TestWorldsLimit(t *testing.T) {
	d := markup.MustParse("d", "a b c d e f g h")
	at := oracle.NewATable("v")
	var all oracle.ACell
	for _, tok := range d.Tokens() {
		all = append(all, d.Span(tok.Start, tok.End))
	}
	for i := 0; i < 4; i++ {
		at.Tuples = append(at.Tuples, oracle.ATuple{Cells: []oracle.ACell{all}})
	}
	if _, err := at.Worlds(10); err == nil {
		t.Fatal("expected ErrTooManyWorlds")
	}
}

func TestIsSupersetOf(t *testing.T) {
	got := map[string]bool{"a": true, "b": true}
	want := map[string]bool{"a": true}
	if !oracle.IsSupersetOf(got, want) {
		t.Error("superset check failed")
	}
	if oracle.IsSupersetOf(want, got) {
		t.Error("subset incorrectly accepted")
	}
}

func TestATableStringRendering(t *testing.T) {
	d := markup.MustParse("d", "Alice 5 6")
	at := oracle.NewATable("name", "age")
	at.Tuples = append(at.Tuples, oracle.ATuple{
		Maybe: true,
		Cells: []oracle.ACell{{span(d, "Alice")}, {span(d, "5"), span(d, "6")}},
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
	at := oracle.NewATable("v")
	at.Tuples = append(at.Tuples,
		oracle.ATuple{Maybe: true, Cells: []oracle.ACell{{span(d, "x")}}},
		oracle.ATuple{Cells: []oracle.ACell{{span(d, "y")}}},
	)
	ct := at.ToCompact()
	if !ct.Tuples[0].Maybe || ct.Tuples[1].Maybe {
		t.Errorf("maybe flags lost:\n%s", ct)
	}
}

func TestToATableEmptyTable(t *testing.T) {
	tb := compact.NewTable("a", "b")
	at := oracle.ToATable(tb)
	if len(at.Tuples) != 0 || len(at.Cols) != 2 {
		t.Errorf("empty conversion = %+v", at)
	}
	back := at.ToCompact()
	if len(back.Tuples) != 0 {
		t.Errorf("round trip of empty table = %+v", back)
	}
}

func TestWorldsOfEmptyTable(t *testing.T) {
	at := oracle.NewATable("v")
	worlds, err := at.Worlds(10)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one world: the empty relation.
	if len(worlds) != 1 || !worlds[oracle.World{}.Canonical()] {
		t.Errorf("worlds of empty table = %v", worlds)
	}
}

func TestWorldsTupleWithEmptyCell(t *testing.T) {
	d := markup.MustParse("d", "x")
	at := oracle.NewATable("a", "b")
	at.Tuples = append(at.Tuples, oracle.ATuple{Cells: []oracle.ACell{{span(d, "x")}, {}}})
	worlds, err := at.Worlds(10)
	if err != nil {
		t.Fatal(err)
	}
	// A non-maybe tuple with an impossible cell contributes no worlds.
	if len(worlds) != 0 {
		t.Errorf("worlds = %v", worlds)
	}
}
