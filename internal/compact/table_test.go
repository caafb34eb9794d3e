package compact

import (
	"strings"
	"testing"

	"iflex/internal/markup"
	"iflex/internal/text"
)

func span(d *text.Document, sub string) text.Span {
	i := strings.Index(d.Text(), sub)
	if i < 0 {
		panic("substring not found: " + sub)
	}
	return d.Span(i, i+len(sub))
}

func TestCellValuesAndCounts(t *testing.T) {
	d := markup.MustParse("d", "Cozy house on quiet street")
	c := Cell{Assigns: []text.Assignment{
		text.ExactOf(span(d, "Cozy")),
		text.ContainOf(span(d, "quiet street")),
	}}
	if got := c.NumValues(); got != 1+3 {
		t.Fatalf("NumValues = %d, want 4", got)
	}
	var vals []string
	c.Values(func(s text.Span) bool {
		vals = append(vals, s.Text())
		return true
	})
	want := []string{"Cozy", "quiet", "quiet street", "street"}
	if len(vals) != len(want) {
		t.Fatalf("values = %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("value %d = %q, want %q", i, vals[i], want[i])
		}
	}
	if !c.Covers(span(d, "street")) || c.Covers(span(d, "house")) {
		t.Error("Covers wrong")
	}
}

func TestCellSingleton(t *testing.T) {
	d := markup.MustParse("d", "one two")
	ec := ExactCell(span(d, "one"))
	if s, ok := ec.Singleton(); !ok || s.Text() != "one" {
		t.Errorf("Singleton of exact cell = %v, %v", s, ok)
	}
	// contain over a single token encodes one value.
	cc := ContainCell(span(d, "two"))
	if s, ok := cc.Singleton(); !ok || s.Text() != "two" {
		t.Errorf("Singleton of 1-token contain = %v, %v", s, ok)
	}
	multi := ContainCell(d.WholeSpan())
	if _, ok := multi.Singleton(); ok {
		t.Error("multi-value cell should not be a singleton")
	}
}

func TestTupleExpandCells(t *testing.T) {
	d := markup.MustParse("d", "Basktall Champaign Hoover Lynneville")
	s1 := span(d, "Basktall Champaign")
	s2 := span(d, "Hoover Lynneville")
	tp := Tuple{Cells: []Cell{
		ExactCell(span(d, "Basktall")),
		ExpandCell(text.ContainOf(s1), text.ContainOf(s2)),
	}}
	if got := tp.NumExpanded(); got != 6 {
		t.Fatalf("NumExpanded = %d, want 6 (3+3 sub-spans)", got)
	}
	ex := tp.ExpandCells()
	if len(ex) != 6 {
		t.Fatalf("ExpandCells returned %d tuples", len(ex))
	}
	for _, e := range ex {
		if e.Cells[1].Expand {
			t.Error("expanded tuple still has expansion cell")
		}
		if _, ok := e.Cells[1].Singleton(); !ok {
			t.Error("expanded cell should be a singleton")
		}
	}
}

func TestTupleExpandPreservesMaybe(t *testing.T) {
	d := markup.MustParse("d", "a b")
	tp := Tuple{Maybe: true, Cells: []Cell{ExpandCell(text.ContainOf(d.WholeSpan()))}}
	for _, e := range tp.ExpandCells() {
		if !e.Maybe {
			t.Error("maybe flag lost during expansion")
		}
	}
}

func TestMultipleExpansionCellsCrossProduct(t *testing.T) {
	d := markup.MustParse("d", "a b c d")
	tp := Tuple{Cells: []Cell{
		ExpandCell(text.ContainOf(span(d, "a b"))),
		ExpandCell(text.ContainOf(span(d, "c d"))),
	}}
	if got := tp.NumExpanded(); got != 9 {
		t.Fatalf("NumExpanded = %d, want 9", got)
	}
	if got := len(tp.ExpandCells()); got != 9 {
		t.Fatalf("ExpandCells = %d tuples, want 9", got)
	}
}

func TestTableBasics(t *testing.T) {
	d := markup.MustParse("d", "x y")
	tb := NewTable("a", "b")
	if tb.ColIndex("b") != 1 || tb.ColIndex("z") != -1 {
		t.Error("ColIndex wrong")
	}
	tb.Append(Tuple{Cells: []Cell{ExactCell(span(d, "x")), ExactCell(span(d, "y"))}})
	if tb.NumExpandedTuples() != 1 || tb.NumAssignments() != 2 {
		t.Errorf("counts = %d tuples, %d assigns", tb.NumExpandedTuples(), tb.NumAssignments())
	}
	cl := tb.Clone()
	cl.Tuples[0].Maybe = true
	if tb.Tuples[0].Maybe {
		t.Error("Clone not deep")
	}
}

func TestAppendArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	NewTable("a", "b").Append(Tuple{Cells: []Cell{{}}})
}

func TestTableStringRendering(t *testing.T) {
	d := markup.MustParse("d", "92 bottles")
	tb := NewTable("n")
	tb.Append(Tuple{Maybe: true, Cells: []Cell{ExactCell(span(d, "92"))}})
	s := tb.String()
	if !strings.Contains(s, `exact("92")`) || !strings.Contains(s, "?") {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(tb.Canonical(), "(n)") {
		t.Errorf("Canonical = %q", tb.Canonical())
	}
}

func TestCellDedup(t *testing.T) {
	d := markup.MustParse("d", "alpha beta")
	c := Cell{Assigns: []text.Assignment{
		text.ExactOf(span(d, "alpha")),
		text.ContainOf(d.WholeSpan()),
	}}
	dd := c.Dedup()
	if len(dd.Assigns) != 1 {
		t.Fatalf("Dedup = %v", dd)
	}
}
