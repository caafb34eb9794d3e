package engine_test

// The tests here hold a constraint run to the chain of one-constraint nodes
// it replaced (engine.StackRunsForTest builds that chain from the same
// programs), over generated Books and DBLife pages. They live in an
// external test package because the corpus generators import the engine.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/compact"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/fault"
	"iflex/internal/feature"
)

// runTasks are the programs the tests refine: T8 has four extraction
// attributes and two comparisons above them, the DBLife programs two
// attributes under an annotation.
func runTasks(t *testing.T) []*corpus.Task {
	t.Helper()
	t8, err := corpus.TaskByID("T8")
	if err != nil {
		t.Fatal(err)
	}
	dblife := corpus.DBLifeTasks()
	return []*corpus.Task{t8, dblife[0], dblife[1]}
}

// addition is one constraint a developer's answer adds to the program.
type addition struct {
	attr           alog.AttrRef
	feature, value string
}

// drawAdditions draws, for every attribute of the task, 2 to 10
// constraints — mostly the answer the task's oracle would give, sometimes
// another value of the same feature, so that cells empty and tuples drop —
// and shuffles them into the order a session might ask them in.
func drawAdditions(r *rand.Rand, task *corpus.Task) []addition {
	var out []addition
	answers := task.Oracle().Answers
	attrs := make([]string, 0, len(answers))
	for a := range answers {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		pred, v, _ := strings.Cut(a, ".")
		feats := make([]string, 0, len(answers[a]))
		for f, val := range answers[a] {
			if val != feature.Unknown {
				feats = append(feats, f)
			}
		}
		sort.Strings(feats)
		r.Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		for _, f := range feats[:min(len(feats), 2+r.Intn(9))] {
			val := answers[a][f]
			if r.Intn(5) == 0 {
				switch val {
				case feature.Yes, feature.DistinctYes:
					val = feature.No
				case feature.No:
					val = []string{feature.Yes, feature.DistinctYes}[r.Intn(2)]
				case "1", "2":
					val = "3"
				}
			}
			out = append(out, addition{alog.AttrRef{Pred: pred, Var: v}, f, val})
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// replayed is what one replay of a sequence of additions leaves to compare.
type replayed struct {
	tables []*compact.Table // every base and trial result, in order
	sums   []int            // SumAssignments of every base plan
	// verify, refine, fallbacks, func, stages: the deterministic work done.
	work          [5]int64
	nodes, tuples int64
}

// replay drives a context the way a session does: execute the program,
// then repeatedly evaluate the next addition as a trial linked to the base
// plan, fold one or two additions in (two on the same step is the corner
// TestRunResumesBehindTrial pins) and execute the new base plan linked to
// the old one. Without delta reuse every plan gets a context of its own: a run is then one unit
// of reuse where the chain has one per constraint, so the work of the two
// is only comparable plan by plan.
func replay(t *testing.T, task *corpus.Task, c *corpus.Corpus, adds []addition, seed int64, workers int, delta bool) replayed {
	t.Helper()
	env := task.Env(c)
	var ctx *engine.Context
	var out replayed
	tally := func() {
		if ctx != nil {
			s := ctx.Stats
			for i, n := range []int64{s.VerifyCalls, s.RefineCalls, s.LimitFallbacks, s.FuncCalls, s.ConstraintStages} {
				out.work[i] += n
			}
			out.nodes, out.tuples = out.nodes+s.NodesEvaluated, out.tuples+s.TuplesBuilt
		}
	}
	r := rand.New(rand.NewSource(seed))
	prog := alog.MustParse(task.Program)
	compile := func(p *alog.Program) *engine.Plan {
		if ctx == nil || !delta {
			tally()
			ctx = engine.NewContext(env)
			ctx.Workers = workers
			if delta {
				ctx.EnableDelta()
			}
		}
		plan, err := engine.Compile(p, env)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	execute := func(plan *engine.Plan) {
		tbl, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out.tables = append(out.tables, tbl)
	}
	add := func(p *alog.Program, a addition) {
		if err := p.AddConstraint(a.attr, a.feature, a.value); err != nil {
			t.Fatal(err)
		}
	}
	var prev *engine.Plan
	for {
		base := compile(prog)
		ctx.ResetDelta()
		if prev != nil {
			ctx.RegisterDelta(prev.Root, base.Root)
		}
		execute(base)
		sum, err := engine.SumAssignments(ctx, base.Root)
		if err != nil {
			t.Fatal(err)
		}
		out.sums = append(out.sums, sum)
		prev = base
		if len(adds) == 0 {
			break
		}
		trial := prog.Clone()
		add(trial, adds[0])
		tp := compile(trial)
		ctx.RegisterDelta(base.Root, tp.Root)
		execute(tp)
		n := min(len(adds), 1+r.Intn(2))
		for _, a := range adds[:n] {
			add(prog, a)
		}
		adds = adds[n:]
	}
	tally()
	return out
}

// TestRunEqualsChain: over random constraint subsets on generated pages, a
// run and the chain produce structurally equal tables at every step of a
// session-shaped replay, the same SumAssignments, and the same
// Verify/Refine/fallback counts — serially and on eight workers, with delta
// reuse on and off.
func TestRunEqualsChain(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, task := range runTasks(t) {
		for seed := int64(1); seed <= seeds; seed++ {
			c := task.Generate(30, seed)
			adds := drawAdditions(rand.New(rand.NewSource(seed)), task)
			for _, workers := range []int{1, 8} {
				for _, delta := range []bool{false, true} {
					where := fmt.Sprintf("%s seed=%d workers=%d delta=%t", task.ID, seed, workers, delta)
					run := replay(t, task, c, adds, seed, workers, delta)
					restore := engine.StackRunsForTest()
					chain := replay(t, task, c, adds, seed, workers, delta)
					restore()
					if len(run.tables) != len(chain.tables) {
						t.Fatalf("%s: %d tables, chain %d", where, len(run.tables), len(chain.tables))
					}
					for i := range run.tables {
						if !run.tables[i].StructuralEq(chain.tables[i]) {
							t.Fatalf("%s: table %d differs\nrun:\n%s\nchain:\n%s", where, i, run.tables[i], chain.tables[i])
						}
					}
					if !slices.Equal(run.sums, chain.sums) {
						t.Fatalf("%s: SumAssignments %v, chain %v", where, run.sums, chain.sums)
					}
					if run.work != chain.work {
						t.Fatalf("%s: verify/refine/fallbacks/func/stages %v, chain %v", where, run.work, chain.work)
					}
					if run.nodes >= chain.nodes || run.tuples >= chain.tuples {
						t.Fatalf("%s: %d nodes and %d tuples, the chain %d and %d: no run was built", where,
							run.nodes, run.tuples, chain.nodes, chain.tuples)
					}
				}
			}
		}
	}
}

// oneRunSrc extracts one attribute under five constraints: scan, from, one
// run, and projections that have no loop to cut.
const oneRunSrc = `
price(x, lp) :- Amazon(x), extractList(x, lp).
extractList(x, lp) :- from(x, lp), in-list(lp) = yes, numeric(lp) = yes,
                      preceded-by(lp) = "List:", max-tokens(lp) = 1, bold-font(lp) = no.
`

func docsOf(t *compact.Table) map[string]bool {
	ids := map[string]bool{}
	for _, tp := range t.Tuples {
		ids[tp.Cells[0].Assigns[0].Span.Doc().ID()] = true
	}
	return ids
}

// TestRunUnderDeadlineCut fires a best-effort cancellation while the run is
// half way through its input. A run has finished every stage of the tuples
// it reached, where the chain has only put them through its first node: the
// run's partial table holds, finished, every tuple the chain's holds; what
// it did not reach is reported unprocessed, by one cut loop instead of one
// per stage.
func TestRunUnderDeadlineCut(t *testing.T) {
	t8, err := corpus.TaskByID("T8")
	if err != nil {
		t.Fatal(err)
	}
	c := t8.Generate(40, 5)
	docs := c.DocsOf("Amazon")
	cutAfter := len(docs) / 2
	partial := func(cut bool) (*compact.Table, *engine.Context) {
		env := engine.NewEnv()
		env.AddDocTable("Amazon", "x", docs)
		cc, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cut {
			units := 0
			env.FaultHook = func(site string, _ []string) error {
				if units++; site == "feature" && units == cutAfter {
					cancel()
				}
				return nil
			}
		}
		plan, err := engine.Compile(alog.MustParse(oneRunSrc), env)
		if err != nil {
			t.Fatal(err)
		}
		ctx := engine.NewContext(env)
		ctx.Workers = 1
		tbl, err := plan.ExecuteContext(cc, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tbl, ctx
	}
	whole, _ := partial(false)
	run, rctx := partial(true)
	restore := engine.StackRunsForTest()
	chain, cctx := partial(true)
	restore()

	if run.Degraded == nil || !run.Degraded.DeadlineExpired || chain.Degraded == nil || !chain.Degraded.DeadlineExpired {
		t.Fatalf("cut not reported: run %+v, chain %+v", run.Degraded, chain.Degraded)
	}
	if len(run.Tuples) == 0 || len(run.Tuples) >= len(whole.Tuples) {
		t.Fatalf("the cut left %d of %d tuples: not mid-run", len(run.Tuples), len(whole.Tuples))
	}
	// Every tuple the run let through is finished: it is the uncut result's.
	for i, tp := range run.Tuples {
		if !tp.StructuralEq(whole.Tuples[i]) {
			t.Fatalf("tuple %d of the cut run is %v, uncut %v", i, tp, whole.Tuples[i])
		}
	}
	got := docsOf(run)
	for id := range docsOf(chain) {
		if !got[id] {
			t.Fatalf("the chain's partial result has %s, the run's has not", id)
		}
	}
	// Reached or reported, never both, and nothing lost: a page is
	// unprocessed exactly when the run did not get to it.
	unprocessed := map[string]bool{}
	for _, id := range run.Degraded.UnprocessedDocs {
		unprocessed[id] = true
	}
	kept := docsOf(whole)
	for i, d := range docs {
		reached := i < cutAfter
		if unprocessed[d.ID()] == reached {
			t.Fatalf("page %d (%s): reached=%v, reported unprocessed=%v", i, d.ID(), reached, unprocessed[d.ID()])
		}
		if reached && got[d.ID()] != kept[d.ID()] {
			t.Fatalf("page %d (%s) was reached but its tuple is not the uncut result's", i, d.ID())
		}
	}
	if rctx.Stats.DeadlineCuts != 1 || cctx.Stats.DeadlineCuts < 2 {
		t.Fatalf("%d loops cut in the run, %d in the chain; want 1 and one per stage", rctx.Stats.DeadlineCuts, cctx.Stats.DeadlineCuts)
	}
}

// TestRunUnderFeatureFault injects persistent errors at the feature
// boundary under the quarantine policy: the run's single guard around a
// tuple's stages quarantines the documents the chain's per-stage guards
// quarantine, and the surviving table is the same.
func TestRunUnderFeatureFault(t *testing.T) {
	t8, err := corpus.TaskByID("T8")
	if err != nil {
		t.Fatal(err)
	}
	c := t8.Generate(40, 5)
	prog := alog.MustParse(t8.Program)
	for _, a := range drawAdditions(rand.New(rand.NewSource(9)), t8) {
		if err := prog.AddConstraint(a.attr, a.feature, a.value); err != nil {
			t.Fatal(err)
		}
	}
	survive := func(workers int) (string, []string) {
		env := t8.Env(c)
		env.FaultHook = fault.New(11, fault.Rule{Site: "feature", Mode: fault.ModeError, Num: 1, Den: 5}).Hook()
		plan, err := engine.Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		ctx := engine.NewContext(env)
		ctx.Workers = workers
		ctx.FaultPolicy = engine.QuarantineFaults
		tbl, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String(), ctx.QuarantinedDocs()
	}
	for _, workers := range []int{1, 8} {
		runTable, runDocs := survive(workers)
		restore := engine.StackRunsForTest()
		chainTable, chainDocs := survive(workers)
		restore()
		if len(runDocs) == 0 || len(runDocs) == 40 {
			t.Fatalf("workers=%d: %d of 40 pages quarantined; the faults show nothing", workers, len(runDocs))
		}
		if !slices.Equal(runDocs, chainDocs) {
			t.Fatalf("workers=%d: run quarantined %v, chain %v", workers, runDocs, chainDocs)
		}
		if runTable != chainTable {
			t.Fatalf("workers=%d: surviving table differs\nrun:\n%s\nchain:\n%s", workers, runTable, chainTable)
		}
	}
}

// TestSessionsMatchChain runs whole sessions with the paper's convergence
// window of 3 in both shapes. The convergence monitor reads SumAssignments,
// which counts one table per constraint: a run that dropped its stage
// tables from the sum would converge early. And a Simulation session folds
// two answers on one attribute in one step after trials have evaluated the
// first: Verify/Refine calls equal to the chain's show every run resumed
// behind the longest predecessor there was.
func TestSessionsMatchChain(t *testing.T) {
	if testing.Short() {
		t.Skip("whole sessions; skipped in -short")
	}
	t7, err := corpus.TaskByID("T7")
	if err != nil {
		t.Fatal(err)
	}
	session := func(task *corpus.Task, c *corpus.Corpus, strategy assistant.Strategy, workers int) *assistant.Result {
		res, err := assistant.NewSession(task.Env(c), alog.MustParse(task.Program), task.Oracle(),
			assistant.Config{Strategy: strategy, SubsetSeed: 4, Workers: workers}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, task := range append(runTasks(t), t7) {
		c := task.Generate(60, 4)
		for _, strategy := range []assistant.Strategy{assistant.Simulation{}, assistant.Sequential{}} {
			for _, workers := range []int{1, 8} {
				where := fmt.Sprintf("%s %T workers=%d", task.ID, strategy, workers)
				run := session(task, c, strategy, workers)
				restore := engine.StackRunsForTest()
				chain := session(task, c, strategy, workers)
				restore()
				if run.Converged != chain.Converged || len(run.Iterations) != len(chain.Iterations) || run.QuestionsAsked != chain.QuestionsAsked {
					t.Fatalf("%s: converged=%v after %d iterations and %d questions, chain %v, %d, %d", where,
						run.Converged, len(run.Iterations), run.QuestionsAsked, chain.Converged, len(chain.Iterations), chain.QuestionsAsked)
				}
				for i, it := range run.Iterations {
					if ci := chain.Iterations[i]; it.Assignments != ci.Assignments || it.Tuples != ci.Tuples || it.Mode != ci.Mode {
						t.Fatalf("%s: iteration %d (%s) has %d tuples and %d assignments, chain (%s) %d and %d", where,
							it.N, it.Mode, it.Tuples, it.Assignments, ci.Mode, ci.Tuples, ci.Assignments)
					}
				}
				if run.Final.String() != chain.Final.String() {
					t.Fatalf("%s: final table differs", where)
				}
				rs, cs := run.Stats, chain.Stats
				if rs.VerifyCalls != cs.VerifyCalls || rs.RefineCalls != cs.RefineCalls || rs.FuncCalls != cs.FuncCalls ||
					rs.LimitFallbacks != cs.LimitFallbacks || rs.ConstraintStages != cs.ConstraintStages {
					t.Fatalf("%s: verify/refine/func/fallbacks/stages %d/%d/%d/%d/%d, chain %d/%d/%d/%d/%d", where,
						rs.VerifyCalls, rs.RefineCalls, rs.FuncCalls, rs.LimitFallbacks, rs.ConstraintStages,
						cs.VerifyCalls, cs.RefineCalls, cs.FuncCalls, cs.LimitFallbacks, cs.ConstraintStages)
				}
				if !run.Converged {
					t.Fatalf("%s: the session did not converge; the monitor was not exercised", where)
				}
			}
		}
	}
}
