package compact_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"iflex/internal/compact"
	"iflex/internal/store"
	"iflex/internal/text"
)

// budgetedPages stores n pages and opens them under a resident budget that
// holds none of them, so every touch of a page not the last one loaded
// re-reads it from its shard.
func budgetedPages(t *testing.T, n int) (*store.DiskStore, []*text.Document) {
	t.Helper()
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		html := fmt.Sprintf(`House %d for sale.<br>Price: <i>%d</i><br>School: <b>Lincoln High %d</b> on a quiet street with a long description`, i, 350000+i, i)
		if err := w.Add(fmt.Sprintf("p%d", i), html); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.OpenOptions{ResidentBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, st.Docs()
}

// TestRenderRowsLoadsEachPageOnce: a table whose rows revisit pages a
// resident budget cannot hold renders with at most one load per distinct
// page, where rendering it row by row loads a page per row, and String,
// Canonical and RenderRows render exactly what Tuple.String does row by
// row.
func TestRenderRowsLoadsEachPageOnce(t *testing.T) {
	st, docs := budgetedPages(t, 6)
	tbl := compact.NewTable("x", "y")
	for _, x := range docs {
		for _, y := range docs {
			tbl.Append(compact.Tuple{Cells: []compact.Cell{
				compact.ExactCell(x.Span(0, 5)),
				{Assigns: []text.Assignment{text.ContainOf(y.WholeSpan()), text.ExactOf(x.Span(6, 7))}, Expand: true},
			}, Maybe: x == y})
		}
	}

	before := st.Loads()
	rows := make([]string, len(tbl.Tuples))
	for i, tp := range tbl.Tuples {
		rows[i] = tp.String()
	}
	if perRow := st.Loads() - before; perRow <= int64(len(docs)) {
		t.Fatalf("rendering row by row loaded %d pages, want more than the %d distinct ones (budget too loose for the test)", perRow, len(docs))
	}
	sorted := append([]string(nil), rows...)
	sort.Strings(sorted)

	var streamed []string
	for _, c := range []struct {
		name   string
		render func() string
		want   string
	}{
		{"RenderRows", func() string {
			streamed = streamed[:0]
			tbl.RenderRows(func(row string) { streamed = append(streamed, row) })
			return strings.Join(streamed, "\n")
		}, strings.Join(rows, "\n")},
		{"String", tbl.String, "(x, y)\n  " + strings.Join(rows, "\n  ") + "\n"},
		{"Canonical", tbl.Canonical, "(x, y)\n" + strings.Join(sorted, "\n")},
	} {
		before := st.Loads()
		got := c.render()
		if loads := st.Loads() - before; loads > int64(len(docs)) {
			t.Errorf("%s loaded %d pages for %d distinct ones", c.name, loads, len(docs))
		}
		if got != c.want {
			t.Errorf("%s differs from Tuple.String row by row\ngot:\n%s\nwant:\n%s", c.name, got, c.want)
		}
	}
}
