package iflex_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iflex"
	"iflex/internal/store"
)

// apiPages are the pages apiEnv binds, by id a, b, c.
var apiPages = []string{
	"Item A<br>Price: <b>120</b>",
	"Item B<br>Price: <b>80</b>",
	"Item C<br>Price: <b>300</b>",
}

func apiEnv(t *testing.T) *iflex.Env {
	t.Helper()
	env := iflex.NewEnv()
	var docs []*iflex.Document
	for i, src := range apiPages {
		d, err := iflex.ParseDocument(string(rune('a'+i)), src)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	env.AddDocTable("pages", "x", docs)
	return env
}

const apiProg = `
items(x, <p>) :- pages(x), extractPrice(x, p).
Q(x, p) :- items(x, p), p > 100.
extractPrice(x, p) :- from(x, p), numeric(p) = yes.
`

func TestPublicRunAndRefine(t *testing.T) {
	env := apiEnv(t)
	prog, err := iflex.ParseProgram(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := iflex.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 { // 120 and 300 qualify
		t.Fatalf("result:\n%s", res)
	}
	// Refine: price is bold.
	if err := prog.AddConstraint(iflex.AttrRef{Pred: "extractPrice", Var: "p"}, "bold-font", "distinct-yes"); err != nil {
		t.Fatal(err)
	}
	res, err = iflex.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Tuples {
		if _, ok := tp.Cells[1].Singleton(); !ok {
			t.Errorf("price not pinned after refinement: %s", tp)
		}
	}
}

func TestPublicCompileAndContext(t *testing.T) {
	env := apiEnv(t)
	prog := iflex.MustParseProgram(apiProg)
	plan, err := iflex.Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := iflex.NewContext(env)
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	// Second execution through the same context hits the cache.
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.CacheHits == 0 {
		t.Error("expected reuse cache hits")
	}
}

func TestPublicSessionWithAnswersOracle(t *testing.T) {
	env := apiEnv(t)
	prog := iflex.MustParseProgram(apiProg)
	oracle := iflex.AnswersOracle(map[string]map[string]string{
		"extractPrice.p": {
			"bold-font":   "distinct-yes",
			"preceded-by": "Price:",
		},
	})
	session := iflex.NewSession(env, prog, oracle, iflex.SessionConfig{
		Strategy: iflex.SimulationStrategy,
	})
	res, err := session.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalTuples != 2 {
		t.Fatalf("final:\n%s", res.Final)
	}
}

func TestPublicInteractiveOracle(t *testing.T) {
	asked := 0
	oracle := iflex.InteractiveOracle(func(q iflex.Question) (string, bool) {
		asked++
		if strings.Contains(q.String(), "bold-font") {
			return "distinct-yes", true
		}
		return "", false
	})
	env := apiEnv(t)
	prog := iflex.MustParseProgram(apiProg)
	session := iflex.NewSession(env, prog, oracle, iflex.SessionConfig{})
	if _, err := session.Run(); err != nil {
		t.Fatal(err)
	}
	if asked == 0 {
		t.Error("interactive oracle never consulted")
	}
}

func TestLoadDocuments(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"b.html":    "<b>second</b>",
		"a.html":    "<b>first</b>",
		"skip.txt":  "not html",
		"also.html": "<i>third</i>",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := iflex.LoadDocuments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("loaded %d docs", len(docs))
	}
	// Sorted by file name.
	if docs[0].ID() != "a.html" || docs[1].ID() != "also.html" || docs[2].ID() != "b.html" {
		t.Errorf("order: %s, %s, %s", docs[0].ID(), docs[1].ID(), docs[2].ID())
	}
	if _, err := iflex.LoadDocuments(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir should error")
	}
}

func TestStrategyByName(t *testing.T) {
	for _, name := range []string{"seq", "sim"} {
		if _, err := iflex.StrategyByName(name); err != nil {
			t.Errorf("StrategyByName(%s): %v", name, err)
		}
	}
	if _, err := iflex.StrategyByName("other"); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestParseErrorsSurface(t *testing.T) {
	if _, err := iflex.ParseProgram("not a program"); err == nil {
		t.Error("bad program should fail to parse")
	}
	// An unclosed *element* is tolerated (closed at EOF), but an
	// unterminated *tag* is an error.
	if _, err := iflex.ParseDocument("d", "hello <b world"); err == nil {
		t.Error("bad markup should fail to parse")
	}
}

// TestPublicOpenStore: a store built by a Writer from apiPages, opened
// through the facade and bound with BindStore, gives the table the
// in-memory pages give, with no resident budget and with one so small
// that pages are released and re-read.
func TestPublicOpenStore(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{ShardDocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range apiPages {
		if err := w.Add(string(rune('a'+i)), src); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := iflex.Run(iflex.MustParseProgram(apiProg), apiEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1} {
		st, err := iflex.OpenStore(dir, budget)
		if err != nil {
			t.Fatal(err)
		}
		env := iflex.NewEnv()
		env.BindStore("pages", "x", st)
		got, err := iflex.Run(iflex.MustParseProgram(apiProg), env)
		if err != nil {
			t.Fatal(err)
		}
		// Rendering reads the pages, so the store closes after it.
		if got.Canonical() != want.Canonical() {
			t.Fatalf("budget %d: the store gives\n%s\nthe in-memory pages give\n%s", budget, got, want)
		}
		st.TrimWait()
		if budget > 0 && st.Releases() == 0 {
			t.Errorf("budget %d: %d loads and no page released", budget, st.Loads())
		}
		st.Close()
	}
	if _, err := iflex.OpenStore(filepath.Join(dir, "missing"), 0); err == nil {
		t.Error("OpenStore of a directory without a store should fail")
	}
}

// TestPublicExampleOracle runs a session to its end with every answer
// derived from one marked example price, and keeps both prices above 100.
func TestPublicExampleOracle(t *testing.T) {
	env := apiEnv(t)
	d := env.Tables["pages"].Tuples[0].Cells[0].Assigns[0].Span.Doc()
	i := strings.Index(d.Text(), "120")
	if d.ID() != "a" || i < 0 {
		t.Fatalf("page %s: %q", d.ID(), d.Text())
	}
	oracle := iflex.ExampleOracle(env, map[iflex.AttrRef][]iflex.Span{
		{Pred: "extractPrice", Var: "p"}: {d.Span(i, i+3)},
	})
	session := iflex.NewSession(env, iflex.MustParseProgram(apiProg), oracle, iflex.SessionConfig{
		Strategy: iflex.SimulationStrategy,
	})
	res, err := session.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.QuestionsAsked == 0 || !res.Converged || res.FinalTuples != 2 {
		t.Fatalf("asked %d questions, converged %v, %d tuples:\n%s", res.QuestionsAsked, res.Converged, res.FinalTuples, res.Final)
	}
	for _, price := range []string{"120", "300"} {
		kept := false
		for _, tp := range res.Final.Tuples {
			kept = kept || tp.Cells[1].CoversTextValue(price)
		}
		if !kept {
			t.Errorf("price %s lost:\n%s\nprogram:\n%s", price, res.Final, session.Program())
		}
	}
}
