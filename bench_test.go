// The ablations EXPERIMENTS.md cites for the design choices DESIGN.md
// calls out — reuse caching, the token-blocked similarity join, subset
// evaluation — plus the engine on the paper's Figure 2 and the precise
// baseline of Section 6.3. Whole sessions are measured by benchmark/
// (join_converge, extract_converge), single layers by `make bench-layers`
// next to the code they measure.
//
// Run with: go test -bench=. -benchmem
package iflex_test

import (
	"slices"
	"testing"

	"iflex"
	"iflex/internal/alog"
	"iflex/internal/corpus"
	"iflex/internal/engine"
)

// --- Ablations -----------------------------------------------------------

// figure2Setup builds the running example at a configurable size.
func figure2Setup(b *testing.B, houses int) (*alog.Program, *engine.Env) {
	b.Helper()
	c := corpus.Books(corpus.BooksConfig{Records: houses, Seed: 1})
	env := engine.NewEnv()
	env.AddDocTable("Amazon", "x", c.DocsOf("Amazon"))
	env.AddDocTable("Barnes", "y", c.DocsOf("Barnes"))
	prog := alog.MustParse(`
amT(x, <t1>) :- Amazon(x), extractA(x, t1).
bnT(y, <t2>) :- Barnes(y), extractB(y, t2).
Q(t1) :- amT(x, t1), bnT(y, t2), similar(t1, t2).
extractA(x, t) :- from(x, t), bold-font(t) = distinct-yes.
extractB(y, t) :- from(y, t), underlined(t) = distinct-yes.
`)
	return prog, env
}

// Reuse ablation: re-executing a refined program with a shared context
// (cache warm) versus a fresh context every iteration (Section 5.2).
func BenchmarkAblationReuseWarm(b *testing.B) {
	prog, env := figure2Setup(b, 120)
	plan, err := engine.Compile(prog, env)
	if err != nil {
		b.Fatal(err)
	}
	ctx := engine.NewContext(env)
	if _, err := plan.Execute(ctx); err != nil {
		b.Fatal(err)
	}
	refined := prog.Clone()
	if err := refined.AddConstraint(alog.AttrRef{Pred: "extractA", Var: "t"}, "max-tokens", "10"); err != nil {
		b.Fatal(err)
	}
	plan2, err := engine.Compile(refined, env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Shared context: the Barnes subtree and the Amazon scan are reused
		// from its warm cache.
		if _, err := plan2.Execute(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationReuseCold(b *testing.B) {
	prog, env := figure2Setup(b, 120)
	refined := prog.Clone()
	if err := refined.AddConstraint(alog.AttrRef{Pred: "extractA", Var: "t"}, "max-tokens", "10"); err != nil {
		b.Fatal(err)
	}
	plan2, err := engine.Compile(refined, env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan2.Execute(engine.NewContext(env)); err != nil {
			b.Fatal(err)
		}
	}
}

// Similarity-join ablation: the token-blocked fused join versus the naive
// cross product + filter.
func BenchmarkAblationSimJoinBlocked(b *testing.B) {
	prog, env := figure2Setup(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(prog, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSimJoinNaive(b *testing.B) {
	prog, env := figure2Setup(b, 150)
	for name, pf := range env.Funcs { // disable fusion: cross + filter
		pf.Token = nil
		env.Funcs[name] = pf
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(prog, env); err != nil {
			b.Fatal(err)
		}
	}
}

// Subset-evaluation ablation: executing over the 10% sample versus the
// whole corpus.
func BenchmarkAblationSubsetEval(b *testing.B) {
	prog, env := figure2Setup(b, 200)
	plan, err := engine.Compile(prog, env)
	if err != nil {
		b.Fatal(err)
	}
	filter := map[string]bool{}
	n := 0
	for _, d := range env.Tables["Amazon"].Tuples {
		if n < 20 {
			filter[d.Cells[0].Assigns[0].Span.Doc().ID()] = true
		}
		n++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := engine.NewContext(env)
		ctx.SetDocFilter(filter)
		if _, err := plan.Execute(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFullEval(b *testing.B) {
	prog, env := figure2Setup(b, 200)
	plan, err := engine.Compile(prog, env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(engine.NewContext(env)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineFigure2(b *testing.B) {
	env := iflex.NewEnv()
	x2, err := iflex.ParseDocument("x2", "Amazing house<br>Sqft: 4700<br>Price: 619000<br>High school: Basktall HS")
	if err != nil {
		b.Fatal(err)
	}
	y1, err := iflex.ParseDocument("y1", "<ul><li><b>Basktall</b>, Cherry Hills</li><li><b>Vanhise</b>, Champaign</li></ul>")
	if err != nil {
		b.Fatal(err)
	}
	env.AddDocTable("housePages", "x", []*iflex.Document{x2})
	env.AddDocTable("schoolPages", "y", []*iflex.Document{y1})
	prog := iflex.MustParseProgram(`
houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(x, p, a, h).
schools(s)? :- schoolPages(y), extractSchools(y, s).
Q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000, a > 4500, approxMatch(h, s).
extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h), numeric(p) = yes, numeric(a) = yes.
extractSchools(y, s) :- from(y, s), bold-font(s) = yes.
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iflex.Run(prog, env); err != nil {
			b.Fatal(err)
		}
	}
}

// Section 6.3's anecdote: converged approximate programs run comparably to
// hand-tuned precise procedural programs. These benches measure both paths
// over the same 500-record corpus, warm (one Env, so the document record
// tables persist from run to run) and cold (a fresh Env per run, outside
// the timer).
func BenchmarkPreciseBaselineT7(b *testing.B)          { benchRun(b, preciseSetup(b, "T7"), false) }
func BenchmarkPreciseBaselineT7Cold(b *testing.B)      { benchRun(b, preciseSetup(b, "T7"), true) }
func BenchmarkPreciseBaselineT8Cold(b *testing.B)      { benchRun(b, preciseSetup(b, "T8"), true) }
func BenchmarkConvergedApproximateT7(b *testing.B)     { benchRun(b, convergedSetup(b, "T7"), false) }
func BenchmarkConvergedApproximateT7Cold(b *testing.B) { benchRun(b, convergedSetup(b, "T7"), true) }
func BenchmarkConvergedApproximateT8Cold(b *testing.B) { benchRun(b, convergedSetup(b, "T8"), true) }

// benchSetup is a program and the Envs it runs over.
type benchSetup struct {
	prog *alog.Program
	env  func() *engine.Env
}

// preciseSetup is task id's hand-written precise program.
func preciseSetup(b *testing.B, id string) benchSetup {
	base, err := corpus.TaskByID(id)
	if err != nil {
		b.Fatal(err)
	}
	precise, err := corpus.PreciseTaskByID(id)
	if err != nil {
		b.Fatal(err)
	}
	c := base.Generate(500, 1)
	return benchSetup{alog.MustParse(precise.Program), func() *engine.Env { return precise.Env(base, c) }}
}

// convergedSetup is task id's program with every constraint the oracle
// knows added: the program a session converges to. Each attribute's
// constraints go in in feature order, so every setup builds the same
// program: the order decides how many stages rewrite a cell, and with it
// what the program allocates.
func convergedSetup(b *testing.B, id string) benchSetup {
	base, err := corpus.TaskByID(id)
	if err != nil {
		b.Fatal(err)
	}
	c := base.Generate(500, 1)
	prog := alog.MustParse(base.Program)
	oracle := base.Oracle()
	for _, attr := range prog.Attrs() {
		answers := oracle.Answers[attr.String()]
		feats := make([]string, 0, len(answers))
		for f := range answers {
			feats = append(feats, f)
		}
		slices.Sort(feats)
		for _, f := range feats {
			if answers[f] == "unknown" {
				continue
			}
			if err := prog.AddConstraint(attr, f, answers[f]); err != nil {
				b.Fatal(err)
			}
		}
	}
	return benchSetup{prog, func() *engine.Env { return base.Env(c) }}
}

func benchRun(b *testing.B, s benchSetup, cold bool) {
	env := s.env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			env = s.env()
			b.StartTimer()
		}
		if _, err := engine.Run(s.prog, env); err != nil {
			b.Fatal(err)
		}
	}
}
