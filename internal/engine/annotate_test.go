package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"iflex/internal/compact"
	"iflex/internal/oracle"
	"iflex/internal/text"
)

// annCoverage tallies what a ψ input exercised.
type annCoverage struct {
	passThrough, lone, pair, many, loneCanonical, loneRaw int
}

// refAnnotate is the annotation as it stood before rows were shared: every
// group concatenates its members' annotated assignments in input order and
// deduplicates the concatenation, every key cell is rebuilt, and
// pass-through and existence-marked tuples are deep copies. It returns the
// valuation-limit fallbacks it charged and tallies what the input covered.
func refAnnotate(in *compact.Table, annotated []string, exists bool, lim limits, cov *annCoverage) (*compact.Table, int64) {
	keyIdx, annIdx := splitAnnCols(in.Cols, annotated)
	type group struct {
		keySpans []text.Span
		ann      [][]text.Assignment
		members  int
		sure     bool
	}
	groups := map[string]*group{}
	var order []string
	out := compact.NewTable(in.Cols...)
	var fallbacks int64
	for _, tp := range in.Tuples {
		keyVals := make([][]text.Span, len(keyIdx))
		exactKey, tooBig, combos := true, false, 1
		for i, ki := range keyIdx {
			cell := tp.Cells[ki]
			if cell.NumValues() > lim.MaxCellValues {
				tooBig = true
				break
			}
			cell.Values(func(s text.Span) bool { keyVals[i] = append(keyVals[i], s); return true })
			exactKey = exactKey && len(keyVals[i]) == 1
			if combos *= len(keyVals[i]); combos > lim.MaxValuations {
				tooBig = true
				break
			}
		}
		if tooBig || combos == 0 {
			if tooBig {
				fallbacks++
			}
			cov.passThrough++
			nt := tp.Clone()
			nt.Maybe = true
			out.Tuples = append(out.Tuples, nt)
			continue
		}
		idx := make([]int, len(keyIdx))
		for {
			spans, parts := make([]text.Span, len(keyIdx)), make([]string, len(keyIdx))
			for i, j := range idx {
				spans[i], parts[i] = keyVals[i][j], keyVals[i][j].NormText()
			}
			key := oracle.World{parts}.Canonical()
			g, ok := groups[key]
			if !ok {
				g = &group{keySpans: spans, ann: make([][]text.Assignment, len(annIdx))}
				groups[key] = g
				order = append(order, key)
			}
			for i, ai := range annIdx {
				g.ann[i] = append(g.ann[i], tp.Cells[ai].Assigns...)
			}
			g.members++
			g.sure = g.sure || exactKey && !tp.Maybe
			k := len(idx) - 1
			for ; k >= 0; k-- {
				if idx[k]++; idx[k] < len(keyVals[k]) {
					break
				}
				idx[k] = 0
			}
			if k < 0 {
				break
			}
		}
	}
	for _, key := range order {
		g := groups[key]
		switch {
		case g.members == 1:
			cov.lone++
			for _, as := range g.ann {
				if slices.Equal(text.DedupAssignments(as), as) {
					cov.loneCanonical++
				} else {
					cov.loneRaw++
				}
			}
		case g.members == 2:
			cov.pair++
		default:
			cov.many++
		}
		nt := compact.Tuple{Cells: make([]compact.Cell, len(in.Cols)), Maybe: !g.sure}
		for i, ki := range keyIdx {
			nt.Cells[ki] = compact.ExactCell(g.keySpans[i])
		}
		for i, ai := range annIdx {
			nt.Cells[ai] = compact.Cell{Assigns: text.DedupAssignments(g.ann[i])}
		}
		out.Tuples = append(out.Tuples, nt)
	}
	if exists {
		for i, tp := range out.Tuples {
			nt := tp.Clone()
			nt.Maybe = true
			out.Tuples[i] = nt
		}
	}
	return out, fallbacks
}

// annCase is one generated ψ input. plain says no key cell is an expansion
// cell and no tuple passes through, so BAnnotate's semantics apply to it.
type annCase struct {
	in, next  *compact.Table // next: the input of a successor plan version
	annotated []string
	exists    bool
	plain     bool
}

var annCols = []string{"k", "j", "v", "w"}

// annGen draws ψ inputs over a few short pages, some of them twins, so
// equal key texts come from different spans.
type annGen struct {
	r    *rand.Rand
	docs []*text.Document
	keys []text.Span // one-token key values
}

func newAnnGen(seed int64) *annGen {
	g := &annGen{r: rand.New(rand.NewSource(seed))}
	for i, body := range []string{
		"alpha beta gamma delta epsilon zeta eta",
		"alpha beta gamma delta epsilon zeta eta",
		"red green blue cyan magenta",
		"one two three four five six seven eight",
	} {
		d := text.NewDocument(fmt.Sprintf("p%d", i), body, nil)
		g.docs = append(g.docs, d)
		d.WholeSpan().SubSpans(func(s text.Span) bool {
			if s.NumTokens() == 1 {
				g.keys = append(g.keys, s)
			}
			return true
		})
	}
	return g
}

// span draws a span of one to max tokens.
func (g *annGen) span(max int) text.Span {
	d := g.docs[g.r.Intn(len(g.docs))]
	toks := d.Tokens()
	n := 1 + g.r.Intn(min(max, len(toks)))
	i := g.r.Intn(len(toks) - n + 1)
	return d.Span(toks[i].Start, toks[i+n-1].End)
}

// keyCell draws a key cell: mostly one exact value from a few keys (so
// groups of one, two and many members form), sometimes several values, an
// expansion cell, no value, or one too large to enumerate.
func (g *annGen) keyCell(pool []text.Span) (c compact.Cell, plain bool) {
	exact := func() text.Assignment { return text.ExactOf(pool[g.r.Intn(g.r.Intn(len(pool))+1)]) }
	switch p := g.r.Intn(20); {
	case p < 13:
		return compact.Cell{Assigns: []text.Assignment{exact()}}, true
	case p < 15:
		return compact.Cell{Assigns: []text.Assignment{exact()}, Expand: true}, false
	case p < 17:
		return compact.Cell{Assigns: []text.Assignment{exact(), exact()}}, true
	case p < 18:
		return compact.ContainCell(g.span(2)), true
	case p < 19:
		return compact.ContainCell(g.docs[g.r.Intn(len(g.docs))].WholeSpan()), false // over MaxCellValues
	}
	return compact.Cell{}, false
}

// annCell draws an annotated cell: one to four assignments, deduplicated
// (canonical) or as drawn, sometimes an expansion cell.
func (g *annGen) annCell() compact.Cell {
	as := make([]text.Assignment, 1+g.r.Intn(4))
	for i := range as {
		as[i] = text.Assignment{Mode: text.Mode(g.r.Intn(2)), Span: g.span(3)}
	}
	if g.r.Intn(2) == 0 {
		as = text.DedupAssignments(as)
	}
	return compact.Cell{Assigns: as, Expand: g.r.Intn(5) == 0}
}

func (g *annGen) draw() annCase {
	c := annCase{
		annotated: [][]string{{"j", "v", "w"}, {"j", "v", "w"}, {"v", "w"}, {"w"}, {"k", "j", "v", "w"}}[g.r.Intn(5)],
		exists:    g.r.Intn(3) == 0,
		plain:     true,
	}
	isAnn := map[string]bool{}
	for _, a := range c.annotated {
		isAnn[a] = true
	}
	pool := make([]text.Span, 1+g.r.Intn(8))
	for i := range pool {
		pool[i] = g.keys[g.r.Intn(len(g.keys))]
	}
	row := func() compact.Tuple {
		tp := compact.Tuple{Cells: make([]compact.Cell, len(annCols)), Maybe: g.r.Intn(4) == 0}
		for i, col := range annCols {
			if isAnn[col] {
				tp.Cells[i] = g.annCell()
				continue
			}
			cell, plain := g.keyCell(pool)
			tp.Cells[i], c.plain = cell, c.plain && plain
		}
		return tp
	}
	c.in = compact.NewTable(annCols...)
	for n := 1 + g.r.Intn(30); n > 0; n-- {
		c.in.Tuples = append(c.in.Tuples, row())
	}
	// The successor: some rows get new annotated cells or maybe flags (their
	// key cells replay), some are redrawn, one may be added.
	c.next = compact.NewTable(annCols...)
	for _, tp := range c.in.Tuples {
		switch g.r.Intn(6) {
		case 0:
			tp = row()
		case 1:
			tp = tp.Copy()
			for i, col := range annCols {
				if isAnn[col] {
					tp.Cells[i] = g.annCell()
				}
			}
		case 2:
			tp.Maybe = !tp.Maybe
		}
		c.next.Tuples = append(c.next.Tuples, tp)
	}
	if g.r.Intn(3) == 0 {
		c.next.Tuples = append(c.next.Tuples, row())
	}
	return c
}

// valueSets renders an a-table as distinct value texts per cell, the form
// in which the compact annotation and BAnnotate are the same relations.
func valueSets(a *oracle.ATable) string {
	var b strings.Builder
	for _, tp := range a.Tuples {
		for _, vals := range tp.Cells {
			texts := make([]string, 0, len(vals))
			for _, v := range vals {
				texts = append(texts, v.NormText())
			}
			sort.Strings(texts)
			fmt.Fprintf(&b, "%q", slices.Compact(texts))
		}
		fmt.Fprintf(&b, " maybe=%t\n", tp.Maybe)
	}
	return b.String()
}

// TestAnnotateMatchesReference: over seeded ψ inputs — groups of one, two
// and many members, maybe and sure tuples, multi-valued and oversized keys,
// canonical and raw annotated lists, existence on and off — annotateNode
// renders byte for byte what the append-and-deduplicate merge did, charges
// the same fallbacks, and, expanded, holds the relations BAnnotate builds.
// Each input is evaluated, then a successor version of it linked to the
// first, at Workers 1/8 with delta reuse on and off.
func TestAnnotateMatchesReference(t *testing.T) {
	lim := limits{MaxCellValues: 10, MaxValuations: 8}
	g := newAnnGen(26)
	var cov annCoverage
	var reused int64
	plain := 0
	cases := 300
	if testing.Short() {
		cases = 100
	}
	for trial := 0; trial < cases; trial++ {
		c := g.draw()
		want, wantFb := refAnnotate(c.in, c.annotated, c.exists, lim, &cov)
		wantNext, wantNextFb := refAnnotate(c.next, c.annotated, c.exists, lim, &annCoverage{})
		if c.plain {
			plain++
			ba := oracle.BAnnotate(oracle.ToATable(c.in), c.annotated)
			for i := range ba.Tuples {
				ba.Tuples[i].Maybe = ba.Tuples[i].Maybe || c.exists
			}
			if got, want := valueSets(oracle.ToATable(want)), valueSets(ba); got != want {
				t.Fatalf("trial %d: expanded annotation differs from BAnnotate\ngot:\n%s\nwant:\n%s", trial, got, want)
			}
		}
		for _, workers := range []int{1, 8} {
			for _, delta := range []bool{false, true} {
				env := NewEnv()
				env.limits = lim
				env.Tables["T"], env.Tables["U"] = c.in, c.next
				ctx := NewContext(env)
				ctx.Workers = workers
				if delta {
					ctx.EnableDelta()
				}
				first := newAnnotateNode(env, newScanNode(env, "T", annCols), c.exists, c.annotated)
				second := newAnnotateNode(env, newScanNode(env, "U", annCols), c.exists, c.annotated)
				where := fmt.Sprintf("trial %d workers=%d delta=%t annotated=%v exists=%t", trial, workers, delta, c.annotated, c.exists)
				for _, step := range []struct {
					n    Node
					want *compact.Table
				}{{first, want}, {second, wantNext}} {
					got, err := Eval(ctx, step.n)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if got.String() != step.want.String() {
						t.Fatalf("%s: %s\ngot:\n%s\nwant:\n%s", where, step.n.Signature(), got, step.want)
					}
					ctx.RegisterDelta(first, second)
				}
				if fb := ctx.Stats.LimitFallbacks; fb != wantFb+wantNextFb {
					t.Fatalf("%s: %d fallbacks, reference %d", where, fb, wantFb+wantNextFb)
				}
				reused += ctx.Stats.TuplesReused
			}
		}
	}
	if cov.passThrough == 0 || cov.lone == 0 || cov.pair == 0 || cov.many == 0 || cov.loneCanonical == 0 || cov.loneRaw == 0 ||
		plain == 0 || reused == 0 {
		t.Fatalf("the inputs missed a case: %+v, %d BAnnotate-comparable, %d tuples replayed", cov, plain, reused)
	}
}

// BenchmarkAnnotate times one ψ evaluation over 2,000 T8-shaped rows — a
// page key and four annotated extraction cells, deduplicated as refinement
// leaves them — its input served from the cache: one row per page, T8's
// shape, where every group has a lone contributor; and 500 pages with four
// rows each.
func BenchmarkAnnotate(b *testing.B) {
	for _, leg := range []struct {
		name  string
		pages int
	}{{"1-contributor", 2000}, {"4-contributor", 500}} {
		b.Run(leg.name, func(b *testing.B) {
			docs := make([]*text.Document, leg.pages)
			for i := range docs {
				docs[i] = text.NewDocument(fmt.Sprintf("am%04d", i), fmt.Sprintf(
					"Title %d of the book List: $%d.99 New: $%d.50 Used: $%d.00 Ships soon", i, 20+i%50, 15+i%40, 5+i%30), nil)
			}
			in := compact.NewTable("x", "t", "lp", "np", "up")
			for i := 0; i < 2000; i++ {
				d := docs[i%leg.pages]
				toks := d.Tokens()
				tok := func(j int) text.Assignment { return text.ExactOf(d.Span(toks[j].Start, toks[j].End)) }
				r := i / leg.pages // which of a page's rows
				in.Append(compact.Tuple{Cells: []compact.Cell{
					compact.ExactCell(d.WholeSpan()),
					{Assigns: text.DedupAssignments([]text.Assignment{text.ContainOf(d.Span(toks[0].Start, toks[4+r].End))})},
					{Assigns: text.DedupAssignments([]text.Assignment{tok(6), tok(5 + r)})},
					{Assigns: []text.Assignment{tok(8)}},
					{Assigns: []text.Assignment{tok(10 - r%2)}},
				}})
			}
			env := NewEnv()
			env.Tables["Amazon"] = in
			scan := newScanNode(env, "Amazon", in.Cols)
			n := newAnnotateNode(env, scan, false, []string{"t", "lp", "np", "up"})
			ctx := NewContext(env)
			scanned, err := Eval(ctx, scan)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var out *compact.Table
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = n.eval(ctx, nil, nil, []*compact.Table{scanned}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(out.Tuples)), "groups/op")
		})
	}
}

// annotateRows runs ψ annotating c over a table (a, b, c) whose cells are
// exact whole documents holding the given texts, and returns its result.
func annotateRows(t *testing.T, rows [][3]string) *compact.Table {
	t.Helper()
	in := compact.NewTable("a", "b", "c")
	for i, row := range rows {
		var tp compact.Tuple
		for j, s := range row {
			d := text.NewDocument(fmt.Sprintf("d%d-%d", i, j), s, nil)
			tp.Cells = append(tp.Cells, compact.ExactCell(d.WholeSpan()))
		}
		in.Append(tp)
	}
	env := NewEnv()
	env.Tables["T"] = in
	res, err := Eval(NewContext(env), newAnnotateNode(env, newScanNode(env, "T", in.Cols), false, []string{"c"}))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAnnotateKeysInjective: ψ groups by the texts of a key's parts,
// whatever bytes they hold, so (x␟y, z) and (x, y␟z) stay two groups and
// the world holding (x, y␟z, v2) is kept.
func TestAnnotateKeysInjective(t *testing.T) {
	res := annotateRows(t, [][3]string{{"x␟y", "z", "v1"}, {"x", "y␟z", "v2"}})
	if len(res.Tuples) != 2 {
		t.Fatalf("two distinct keys made %d groups:\n%s", len(res.Tuples), res)
	}
}

// FuzzAnnotateKeys: over two-column keys built from fuzzed texts, ψ makes
// one group per distinct (NormText, NormText) pair.
func FuzzAnnotateKeys(f *testing.F) {
	f.Add("x␟y", "z", "x", "y␟z")
	f.Add("a", "b", "A", "b ")
	f.Fuzz(func(t *testing.T, a1, b1, a2, b2 string) {
		rows := [][3]string{{a1, b1, "v1"}, {a2, b2, "v2"}, {a1, b2, "v3"}, {a2, b1, "v4"}}
		distinct := map[[2]string]bool{}
		for i, row := range rows {
			norm := func(j int) string {
				return text.NewDocument(fmt.Sprintf("n%d-%d", i, j), row[j], nil).WholeSpan().NormText()
			}
			distinct[[2]string{norm(0), norm(1)}] = true
		}
		if res := annotateRows(t, rows); len(res.Tuples) != len(distinct) {
			t.Fatalf("%d distinct keys made %d groups:\n%s", len(distinct), len(res.Tuples), res)
		}
	})
}
