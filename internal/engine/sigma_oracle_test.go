package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/feature"
	"iflex/internal/markup"
	"iflex/internal/oracle"
	"iflex/internal/text"
)

// sigmaFragments are the pieces oracle pages are made of: marks, links,
// headers (a link and a header nested in another), labels and numbers.
var sigmaFragments = []string{
	"<b>Price:</b> 42", "<h2>Venue</h2>Madison", "<i>A. Smith</i>", "New: $45.00", "<u>Vol 2</u>",
	`<a href="http://imdb.com/x">Godfather</a>`, "<li>Beds: 3</li>", "Our price: 17", "<title>Books</title>",
	"VLDB 2001", "<h3>Program</h3><b>Bob</b>", "<li>List: 120</li>",
	`<a href="http://imdb.com/t">Cast <a href="http://imdb.com/n">Al</a> 7</a>`, "<h2>Venue <h3>Program</h3> 9</h2> Bob",
}

// sigmaValues lists the values a generated constraint may take per feature.
func sigmaValues(f feature.Feature) []string {
	switch f.Name() {
	case "min-value", "max-value":
		return []string{"10", "100"}
	case "min-length", "max-length":
		return []string{"4", "9"}
	case "min-tokens", "max-tokens":
		return []string{"1", "2"}
	case "starts-with", "ends-with", "matches":
		return []string{"[0-9]+", "[A-Z][a-z]+", "Price: [0-9]+", "[a-z]+ [0-9]"}
	case "preceded-by", "followed-by":
		return []string{"Price:", "New:", "Beds:"}
	case "prec-label-contains":
		return []string{"venue", "program"}
	case "prec-label-max-dist":
		return []string{"3", "20"}
	case "link-to-contains":
		return []string{"imdb"}
	}
	return []string{feature.Yes, feature.No, feature.DistinctYes}
}

// sigmaCase is one generated program over one page.
type sigmaCase struct {
	page  *text.Document
	attrs []string
	cons  []alog.Constraint
	head  string // "", "<>" (attribute annotation) or "?" (existence)
}

func (c sigmaCase) program() string {
	headVars := make([]string, len(c.attrs))
	var froms, body []string
	for i, a := range c.attrs {
		headVars[i] = a
		if c.head == "<>" {
			headVars[i] = "<" + a + ">"
		}
		froms = append(froms, fmt.Sprintf("from(x, %s)", a))
	}
	for _, k := range c.cons {
		body = append(body, fmt.Sprintf("%s(%s) = %q", k.Feature, k.Attr, k.Value))
	}
	q := ""
	if c.head == "?" {
		q = "?"
	}
	vars := strings.Join(c.attrs, ", ")
	return fmt.Sprintf("T(x, %s)%s :- pages(x), ext(x, %s).\next(x, %s) :- %s.\n",
		strings.Join(headVars, ", "), q, vars, vars, strings.Join(append(froms, body...), ", "))
}

// genSigmaCase draws a page of one to three fragments and a program with
// one to four built-in constraints on one or two from attributes. Pages
// stay small enough for the oracle to enumerate: at most eight tokens for
// one attribute, six for two, five under existence annotation (whose
// worlds are every subset of the relation), which only one attribute gets.
func genSigmaCase(r *rand.Rand, reg *feature.Registry, i int) sigmaCase {
	c := sigmaCase{head: []string{"", "<>", "?"}[r.Intn(3)], attrs: []string{"a"}}
	if c.head != "?" && r.Intn(2) == 0 {
		c.attrs = append(c.attrs, "b")
	}
	budget := map[int]int{1: 8, 2: 6}[len(c.attrs)]
	if c.head == "?" {
		budget = 5
	}
	for {
		var src strings.Builder
		for n := 1 + r.Intn(3); n > 0; n-- {
			src.WriteString(sigmaFragments[r.Intn(len(sigmaFragments))] + " ")
		}
		if c.page = markup.MustParse(fmt.Sprintf("p%d", i), src.String()); len(c.page.Tokens()) <= budget {
			break
		}
	}
	names := reg.Names()
	for n := 1 + r.Intn(4); n > 0; n-- {
		f, _ := reg.Lookup(names[r.Intn(len(names))])
		vs := sigmaValues(f)
		c.cons = append(c.cons, alog.Constraint{Feature: f.Name(), Attr: c.attrs[r.Intn(len(c.attrs))], Value: vs[r.Intn(len(vs))]})
	}
	return c
}

// checkSigmaCase runs the program through the engine and holds its result
// to the oracle's: every world of the brute-force relation (grouped per
// page with BAnnotate under attribute annotation, every subset under
// existence annotation) must be a world of the compact result. Without
// existence annotation the engine's tuples are read as maybe: an
// extraction lists every value of its contain cells, which the program's
// constraints may still reject, so the contract there is that every row of
// a precise world is among the result's. Under existence annotation the
// result's maybe flags are ψ's output and are read as they are. Then the
// first metamorphic law: the result expands to no row the program without
// its last constraint does not.
func checkSigmaCase(t *testing.T, c sigmaCase) {
	t.Helper()
	reg := feature.NewRegistry()
	want, err := oracle.Extract(c.page, append([]string{"x"}, c.attrs...), c.cons, reg)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	switch c.head {
	case "<>":
		want = oracle.BAnnotate(want, c.attrs)
	case "?":
		for i := range want.Tuples {
			want.Tuples[i].Maybe = true
		}
	}
	worlds, err := want.Worlds(1 << 16)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	env := NewEnv()
	env.AddDocTable("pages", "x", []*text.Document{c.page})
	src := c.program()
	res, err := Run(alog.MustParse(src), env)
	if err != nil {
		t.Fatalf("%v\nprogram:\n%s", err, src)
	}
	got := oracle.ToATable(res)
	if c.head != "?" {
		for i := range got.Tuples {
			got.Tuples[i].Maybe = true
		}
	}
	for w := range worlds {
		if !got.HasWorld(oracle.ParseWorld(w)) {
			t.Fatalf("page %q\nprogram:\n%sthe result lacks the world\n%s\nresult:\n%s", c.page.Text(), src, w, res)
		}
	}
	// Adding a constraint never grows the expanded result: the program with
	// its last constraint dropped expands to every row this one does.
	shorter := c
	shorter.cons = c.cons[:len(c.cons)-1]
	wider, err := Run(alog.MustParse(shorter.program()), env)
	if err != nil {
		t.Fatalf("%v\nprogram:\n%s", err, shorter.program())
	}
	rows, widerRows := expandedRows(res), expandedRows(wider)
	for row := range rows {
		if !widerRows[row] {
			t.Fatalf("page %q\nprogram:\n%sexpands to the row %s, which it does not without its last constraint:\n%s\nresult:\n%s\nwithout it:\n%s",
				c.page.Text(), src, row, shorter.program(), res, wider)
		}
	}
}

// expandedRows lists every row a result can take, one value from each cell
// of each of its a-tuples, each value rendered by its byte offsets.
func expandedRows(t *compact.Table) map[string]bool {
	rows := map[string]bool{}
	for _, at := range oracle.ToATable(t).Tuples {
		keys := []string{""}
		for _, c := range at.Cells {
			var next []string
			for _, k := range keys {
				for _, v := range c {
					next = append(next, fmt.Sprintf("%s[%d,%d)", k, v.Start(), v.End()))
				}
			}
			keys = next
		}
		for _, k := range keys {
			rows[k] = true
		}
	}
	return rows
}

// TestConstraintRunsMatchOracle: seeded random single-page programs with
// built-in constraints, checked against the brute-force σ-run of the
// oracle (Verify on every token-aligned sub-span) and against themselves
// with the last constraint dropped (checkSigmaCase). What an unannotated
// result promises — every precise row among its rows, not the precise
// world among its worlds — is DESIGN.md §4's superset paragraph. The long
// leg draws ten times as many programs.
func TestConstraintRunsMatchOracle(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	r := rand.New(rand.NewSource(52))
	reg := feature.NewRegistry()
	for i := 0; i < n; i++ {
		checkSigmaCase(t, genSigmaCase(r, reg, i))
	}
}
