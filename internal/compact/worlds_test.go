package compact_test

import (
	"testing"
	"testing/quick"

	"iflex/internal/compact"
	"iflex/internal/markup"
	"iflex/internal/oracle"
	"iflex/internal/text"
)

// Property: a compact table and its a-table conversion represent the same
// set of possible relations.
func TestQuickCompactATableEquivalence(t *testing.T) {
	f := func(wordSel []uint8, maybe bool, expand bool) bool {
		if len(wordSel) == 0 {
			wordSel = []uint8{1}
		}
		if len(wordSel) > 4 {
			wordSel = wordSel[:4]
		}
		body := ""
		for i, w := range wordSel {
			if i > 0 {
				body += " "
			}
			body += string(rune('a' + w%5))
		}
		d := markup.MustParse("q", body)
		cell := compact.Cell{Assigns: []text.Assignment{text.ContainOf(d.WholeSpan())}, Expand: expand}
		tb := compact.NewTable("v")
		tb.Append(compact.Tuple{Cells: []compact.Cell{cell}, Maybe: maybe})

		at := oracle.ToATable(tb)
		w1, err1 := at.Worlds(100000)
		w2, err2 := oracle.ToATable(at.ToCompact()).Worlds(100000)
		if err1 != nil || err2 != nil {
			return false
		}
		return oracle.IsSupersetOf(w1, w2) && oracle.IsSupersetOf(w2, w1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: expansion of a tuple never changes the represented worlds.
func TestQuickExpansionPreservesWorlds(t *testing.T) {
	f := func(wordSel []uint8, maybe bool) bool {
		if len(wordSel) == 0 || len(wordSel) > 3 {
			wordSel = []uint8{0, 1}
		}
		body := ""
		for i, w := range wordSel {
			if i > 0 {
				body += " "
			}
			body += string(rune('a' + w%4))
		}
		d := markup.MustParse("q", body)
		tb := compact.NewTable("v")
		tb.Append(compact.Tuple{
			Cells: []compact.Cell{{Assigns: []text.Assignment{text.ContainOf(d.WholeSpan())}, Expand: true}},
			Maybe: maybe,
		})
		w1, err1 := oracle.ToATable(tb).Worlds(100000)
		w2, err2 := oracle.ToATable(tb.Expand()).Worlds(100000)
		if err1 != nil || err2 != nil {
			return false
		}
		return oracle.IsSupersetOf(w1, w2) && oracle.IsSupersetOf(w2, w1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A maybe tuple's worlds include the empty relation.
func TestMaybeTupleAllowsAbsence(t *testing.T) {
	d := markup.MustParse("d", "only")
	tb := compact.NewTable("v")
	tb.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(d.WholeSpan())}, Maybe: true})
	worlds, err := oracle.ToATable(tb).Worlds(100)
	if err != nil {
		t.Fatal(err)
	}
	if !worlds[oracle.World{}.Canonical()] {
		t.Error("maybe tuple must admit the empty world")
	}
	if !worlds[oracle.World{{"only"}}.Canonical()] {
		t.Error("maybe tuple must admit the present world")
	}
	if len(worlds) != 2 {
		t.Errorf("worlds = %d, want 2", len(worlds))
	}
}

// Compactness: the paper's motivating claim — a contain assignment packs
// quadratically many values into one assignment.
func TestCompactnessRatio(t *testing.T) {
	body := "w0"
	for i := 1; i < 30; i++ {
		body += " w" + string(rune('0'+i%10))
	}
	d := markup.MustParse("d", body)
	tb := compact.NewTable("v")
	tb.Append(compact.Tuple{Cells: []compact.Cell{compact.ContainCell(d.WholeSpan())}})
	values := oracle.ToATable(tb).Tuples[0].Cells[0]
	if tb.NumAssignments() != 1 {
		t.Fatalf("assignments = %d", tb.NumAssignments())
	}
	if len(values) != 30*31/2 {
		t.Fatalf("values = %d, want %d", len(values), 30*31/2)
	}
}

// Section 3's incompleteness remark: compact tables cannot express mutual
// exclusion (t1 xor t2). The closest superset representation — two maybe
// tuples — necessarily admits four worlds, including both-present and
// both-absent.
func TestMutualExclusionNotRepresentable(t *testing.T) {
	d := markup.MustParse("d", "t1 t2")
	tb := compact.NewTable("v")
	tb.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(span(d, "t1"))}, Maybe: true})
	tb.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(span(d, "t2"))}, Maybe: true})
	worlds, err := oracle.ToATable(tb).Worlds(100)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		oracle.World{}.Canonical():               true, // both absent
		oracle.World{{"t1"}}.Canonical():         true,
		oracle.World{{"t2"}}.Canonical():         true,
		oracle.World{{"t1"}, {"t2"}}.Canonical(): true, // both present
	}
	if len(worlds) != 4 || !oracle.IsSupersetOf(worlds, want) {
		t.Fatalf("worlds = %v", worlds)
	}
	// The xor set {only t1, only t2} is strictly contained: the compact
	// representation is a superset, never an exact encoding.
	xor := map[string]bool{oracle.World{{"t1"}}.Canonical(): true, oracle.World{{"t2"}}.Canonical(): true}
	if !oracle.IsSupersetOf(worlds, xor) {
		t.Error("superset encoding must cover the xor worlds")
	}
	if oracle.IsSupersetOf(xor, worlds) {
		t.Error("xor set must be strictly smaller (incompleteness)")
	}
}
