package oracle

import (
	"slices"

	"iflex/internal/alog"
	"iflex/internal/feature"
	"iflex/internal/text"
)

// Extract evaluates a single-document extraction by brute force, the
// reference a constraint run over one page is checked against:
//
//	T(page, a₁, …, aₙ) :- from(page, a₁), …, from(page, aₙ), f(aᵢ) = v, ….
//
// A value of aᵢ is every token-aligned sub-span of d that passes every
// constraint on aᵢ, each checked with the feature's own Verify: Refine and
// the record tables are never consulted. The result holds one sure a-tuple
// per combination of values, every cell a single span, the page cell d's
// whole span; an attribute with no value leaves the relation empty.
func Extract(d *text.Document, cols []string, cons []alog.Constraint, reg *feature.Registry) (*ATable, error) {
	vals := make([][]text.Span, len(cols)-1)
	for i, attr := range cols[1:] {
		var err error
		d.WholeSpan().SubSpans(func(s text.Span) bool {
			ok := true
			for _, k := range cons {
				if k.Attr != attr || !ok {
					continue
				}
				var f feature.Feature
				if f, err = reg.Lookup(k.Feature); err == nil {
					ok, err = f.Verify(s, k.Value)
				}
				if err != nil {
					return false
				}
			}
			if ok {
				vals[i] = append(vals[i], s)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	out := NewATable(cols...)
	var rec func(i int, row []text.Span)
	rec = func(i int, row []text.Span) {
		if i == len(vals) {
			t := ATuple{Cells: make([]ACell, len(row))}
			for j, s := range row {
				t.Cells[j] = ACell{s}
			}
			out.Tuples = append(out.Tuples, t)
			return
		}
		for _, s := range vals[i] {
			rec(i+1, append(row[:i+1:i+1], s))
		}
	}
	rec(0, []text.Span{d.WholeSpan()})
	return out, nil
}

// HasWorld reports whether w is one of the relations the a-table denotes:
// each of w's rows comes from its own tuple, every sure tuple yields one of
// them, and a maybe tuple yields one or none. It decides membership by
// bipartite matching (rows to the tuples that can yield them), so a table
// with too many maybe tuples to enumerate with Worlds can still be asked.
// A matching covering every row and one covering every sure tuple exist
// together exactly when one matching covers both (Mendelsohn–Dulmage).
func (a *ATable) HasWorld(w World) bool {
	texts := make([][][]string, len(a.Tuples)) // tuple, cell -> its values' texts
	for j, t := range a.Tuples {
		texts[j] = make([][]string, len(t.Cells))
		for c, cell := range t.Cells {
			for _, v := range cell {
				texts[j][c] = append(texts[j][c], v.NormText())
			}
		}
	}
	adj := make([][]int, len(w)) // row -> the tuples that can yield it
	for i, row := range w {
		for j := range a.Tuples {
			yields := len(row) == len(texts[j])
			for c := 0; yields && c < len(row); c++ {
				yields = slices.Contains(texts[j][c], row[c])
			}
			if yields {
				adj[i] = append(adj[i], j)
			}
		}
	}
	rev := make([][]int, len(a.Tuples)) // tuple -> the rows it can yield
	for i, js := range adj {
		for _, j := range js {
			rev[j] = append(rev[j], i)
		}
	}
	var rows, sure []int
	for i := range w {
		rows = append(rows, i)
	}
	for j, t := range a.Tuples {
		if !t.Maybe {
			sure = append(sure, j)
		}
	}
	return covers(adj, len(a.Tuples), rows) && covers(rev, len(w), sure)
}

// covers reports whether some matching of the bipartite graph adj (each
// left vertex to its right vertices, n of them) covers every vertex of
// left, by Kuhn's augmenting paths.
func covers(adj [][]int, n int, left []int) bool {
	match := make([]int, n) // right vertex -> its left vertex, or -1
	for j := range match {
		match[j] = -1
	}
	var seen []bool
	var augment func(i int) bool
	augment = func(i int) bool {
		for _, j := range adj[i] {
			if !seen[j] {
				seen[j] = true
				if match[j] < 0 || augment(match[j]) {
					match[j] = i
					return true
				}
			}
		}
		return false
	}
	for _, i := range left {
		if seen = make([]bool, n); !augment(i) {
			return false
		}
	}
	return true
}
