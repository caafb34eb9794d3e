package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/markup"
	"iflex/internal/oracle"
	"iflex/internal/text"
)

// refTuple is a concrete tuple of the reference (precise) semantics.
type refTuple []string

// refEval computes the precise possible-worlds result of a restricted
// program family directly from definitions, for tiny inputs:
//
//	T(x, v) :- pages(x), ext(x, v), [v > bound].
//	ext(x, v) :- from(x, v), numeric(v) = yes.
//
// With annotation variants:
//   - none: R = all (x, v) with v a numeric token of x; worlds = {R}
//   - <v>:  group by x, one v per x: worlds = all choice combinations
//   - ?:    worlds = powerset of R (existence)
func refWorlds(docs []*text.Document, bound float64, annotate, exists bool) map[string]bool {
	type group struct {
		x  string
		vs []string
	}
	var groups []group
	for _, d := range docs {
		g := group{x: d.WholeSpan().NormText()}
		lo, hi := d.WholeSpan().TokenBounds()
		toks := d.Tokens()
		for i := lo; i < hi; i++ {
			sp := d.Span(toks[i].Start, toks[i].End)
			if n, ok := sp.Numeric(); ok && (bound == 0 || n > bound) {
				g.vs = append(g.vs, sp.NormText())
			}
		}
		groups = append(groups, g)
	}

	worlds := map[string]bool{}
	var addWorld func(rows []refTuple)
	addWorld = func(rows []refTuple) {
		if !exists {
			w := make(oracle.World, len(rows))
			for i, r := range rows {
				w[i] = r
			}
			worlds[w.Canonical()] = true
			return
		}
		// Existence annotation: every subset of rows is a world.
		n := len(rows)
		if n > 12 {
			panic("refWorlds: too many rows for powerset")
		}
		for mask := 0; mask < 1<<n; mask++ {
			var w oracle.World
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w = append(w, rows[i])
				}
			}
			worlds[w.Canonical()] = true
		}
	}

	if !annotate {
		var rows []refTuple
		for _, g := range groups {
			for _, v := range g.vs {
				rows = append(rows, refTuple{g.x, v})
			}
		}
		addWorld(rows)
		return worlds
	}
	// Attribute annotation: choose one v per doc (docs with no v
	// contribute nothing).
	var choose func(i int, acc []refTuple)
	choose = func(i int, acc []refTuple) {
		if i == len(groups) {
			addWorld(acc)
			return
		}
		g := groups[i]
		if len(g.vs) == 0 {
			choose(i+1, acc)
			return
		}
		for _, v := range g.vs {
			choose(i+1, append(acc[:len(acc):len(acc)], refTuple{g.x, v}))
		}
	}
	choose(0, nil)
	return worlds
}

// TestSupersetPropertyRandom generates random tiny corpora and programs
// from the restricted family and checks the engine's possible-worlds set
// is a superset of the precise definition — the core guarantee of
// Section 4.
func TestSupersetPropertyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	words := []string{"alpha", "beta", "10", "20", "30", "400", "x9"}
	for trial := 0; trial < 60; trial++ {
		// Random docs: 1-2 docs, 2-4 tokens each.
		nDocs := 1 + r.Intn(2)
		var docs []*text.Document
		for i := 0; i < nDocs; i++ {
			n := 2 + r.Intn(3)
			var toks []string
			for j := 0; j < n; j++ {
				toks = append(toks, words[r.Intn(len(words))])
			}
			docs = append(docs, markup.MustParse(fmt.Sprintf("d%d", i), strings.Join(toks, " ")))
		}
		annotate := r.Intn(2) == 1
		exists := r.Intn(2) == 1
		var bound float64
		if r.Intn(2) == 1 {
			bound = 15
		}

		head := "T(x, v)"
		if annotate {
			head = "T(x, <v>)"
		}
		if exists {
			head += "?"
		}
		cmp := ""
		if bound > 0 {
			cmp = fmt.Sprintf(", v > %g", bound)
		}
		src := fmt.Sprintf(`%s :- pages(x), ext(x, v)%s.
ext(x, v) :- from(x, v), numeric(v) = yes.`, head, cmp)

		env := NewEnv()
		env.AddDocTable("pages", "x", docs)
		res, err := Run(alog.MustParse(src), env)
		if err != nil {
			t.Fatalf("trial %d: %v\nprogram:\n%s", trial, err, src)
		}
		got, err := oracle.ToATable(res).Worlds(200000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := refWorlds(docs, bound, annotate, exists)
		for w := range want {
			if !got[w] {
				t.Fatalf("trial %d: superset violated\nprogram:\n%s\nmissing world:\n%q\nresult:\n%s",
					trial, src, w, res)
			}
		}
	}
}

// TestSupersetWithConstraintChain checks the guarantee survives stacked
// constraints (the re-checking logic of Section 4.2).
func TestSupersetWithConstraintChain(t *testing.T) {
	d := markup.MustParse("d", "Price: <b>42</b> and plain 7 plus <b>900</b>")
	env := NewEnv()
	env.AddDocTable("pages", "x", []*text.Document{d})
	res, err := Run(alog.MustParse(`
T(x, v) :- pages(x), ext(x, v).
ext(x, v) :- from(x, v), numeric(v) = yes, bold-font(v) = yes, min-value(v) = 10.
`), env)
	if err != nil {
		t.Fatal(err)
	}
	// Precisely: bold numeric values >= 10 are {42, 900}.
	if res.NumExpandedTuples() != 2 {
		t.Fatalf("result:\n%s", res)
	}
	for _, want := range []string{"42", "900"} {
		found := false
		for _, tp := range res.Tuples {
			if tp.Cells[1].CoversTextValue(want) {
				found = true
			}
		}
		if !found {
			t.Errorf("value %s lost", want)
		}
	}
}

// The paper's cleanup-procedure scenario (Section 2.2.4): extracting
// citations and their author lists declaratively, then a procedural
// p-predicate that picks the last author.
func TestCleanupProcedureLastAuthor(t *testing.T) {
	pages := []string{
		"<li><b>Paper One</b><br>By <i>Alice Anderson, Robert Baxter</i></li>",
		"<li><b>Paper Two</b><br>By <i>Carol Castillo</i></li>",
	}
	env := NewEnv()
	var docs []*text.Document
	for i, src := range pages {
		docs = append(docs, markup.MustParse(fmt.Sprintf("p%d", i), src))
	}
	env.AddDocTable("DBLP", "x", docs)
	// The cleanup procedure: split the author list on commas and return
	// the last author (hard to express declaratively — Alog has no ordered
	// sequences).
	env.Procs["lastAuthor"] = Procedure{
		Outputs: 1,
		Fn: func(in text.Span) ([][]text.Span, error) {
			body := in.Text()
			start := in.Start()
			if i := strings.LastIndex(body, ","); i >= 0 {
				start = in.Start() + i + 1
			}
			sp, ok := in.Doc().Span(start, in.End()).Shrink()
			if !ok {
				return nil, nil
			}
			return [][]text.Span{{sp}}, nil
		},
	}
	res, err := Run(alog.MustParse(`
cites(x, <t>, <a>) :- DBLP(x), extractCite(x, t, a).
Q(t, last) :- cites(x, t, a), lastAuthor(a, last).
extractCite(x, t, a) :- from(x, t), from(x, a),
                        bold-font(t) = distinct-yes,
                        italic-font(a) = distinct-yes.
`), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("result:\n%s", res)
	}
	want := map[string]string{"Paper One": "Robert Baxter", "Paper Two": "Carol Castillo"}
	for _, tp := range res.Tuples {
		title, ok1 := tp.Cells[0].Singleton()
		last, ok2 := tp.Cells[1].Singleton()
		if !ok1 || !ok2 {
			t.Fatalf("cells not pinned: %s", tp)
		}
		if want[title.NormText()] != last.NormText() {
			t.Errorf("last author of %q = %q", title.NormText(), last.NormText())
		}
	}
}
