package engine_test

// The tests here hold every constraint run that replays and sessions over
// generated Books and DBLife pages leave in their caches to refRun, a
// reference that shares no code with the engine's run. They live in an
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
	"iflex/internal/text"
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

// refApply applies k to every assignment of as through the feature itself,
// with no record table: Verify keeps an exact assignment, Refine replaces a
// contain one.
func refApply(k *feature.Cons, as []text.Assignment) ([]text.Assignment, error) {
	var out []text.Assignment
	for _, a := range as {
		if a.Mode == text.Exact {
			ok, err := k.Feature.Verify(a.Span, k.Value)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, a)
			}
			continue
		}
		r, err := k.Feature.Refine(a.Span, k.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, r...)
	}
	return out, nil
}

// refRefine is one stage of a run with none of the engine's skip rules: k
// applied to the cell, then every constraint of all in turn, until a round
// leaves the list as it found it (at most three rounds).
func refRefine(c compact.Cell, k *feature.Cons, all []*feature.Cons) (compact.Cell, error) {
	as, err := refApply(k, c.Assigns)
	if err != nil {
		return compact.Cell{}, err
	}
	sorted := func(as []text.Assignment) []text.Assignment {
		cp := slices.Clone(as)
		text.SortAssignments(cp)
		return cp
	}
	for round := 0; round < 3; round++ {
		before := sorted(as)
		for _, kc := range all {
			if as, err = refApply(kc, as); err != nil {
				return compact.Cell{}, err
			}
		}
		if slices.Equal(sorted(as), before) {
			break
		}
	}
	return compact.Cell{Assigns: text.DedupAssignments(as), Expand: c.Expand}, nil
}

// refRun is the run that refines attr under cons, evaluated over its input
// table in: per tuple, stage i refines the cell under cons[i], re-checking
// cons[:i+1], and the tuple drops at its first empty cell. It returns the
// rows that survive every stage, and the assignments the tables between the
// stages would hold: per tuple other·m + Σ_{j≤m} |cellⱼ| with
// m = min(s, n−1), where s is the stages the tuple survived, n the run's
// stages and other the assignments of its other cells (DESIGN.md §11).
func refRun(in *compact.Table, attr string, cons []*feature.Cons) (*compact.Table, int, error) {
	ci := slices.Index(in.Cols, attr)
	out := compact.NewTable(in.Cols...)
	between := 0
	for _, tp := range in.Tuples {
		c := tp.Cells[ci]
		other := -len(c.Assigns)
		for _, oc := range tp.Cells {
			other += len(oc.Assigns)
		}
		survived := 0
		for i, k := range cons {
			var err error
			if c, err = refRefine(c, k, cons[:i+1]); err != nil {
				return nil, 0, err
			}
			if len(c.Assigns) == 0 {
				break
			}
			if survived++; survived < len(cons) {
				between += other + len(c.Assigns)
			}
		}
		if survived == len(cons) {
			nt := tp.Copy()
			nt.Cells[ci] = c
			out.Tuples = append(out.Tuples, nt)
		}
	}
	return out, between, nil
}

// checkedRun is a run's table that checkRuns has held to the reference. A
// cached table never changes; an adopted run shares its predecessor's
// table, so the node is part of the key.
type checkedRun struct {
	node  engine.NodeID
	table *compact.Table
}

// checkRuns holds every constraint run whose table ctx holds, and whose
// input's table it holds under the same document subset, to refRun: the
// same rows, and the same total for the tables between its stages, which
// is what SumAssignments adds for it. Runs in checked are skipped; the rest
// are added. It returns how many runs it checked, and how many of them had
// more than one stage.
func checkRuns(t *testing.T, where string, ctx *engine.Context, checked map[checkedRun]bool) (runs, multi int) {
	t.Helper()
	type key struct {
		subset string
		node   engine.NodeID
	}
	cached := engine.CachedTablesForTest(ctx)
	tables := map[key]*compact.Table{}
	for _, e := range cached {
		tables[key{subsetKey(e.Filter), e.Node.ID()}] = e.Table
	}
	for _, e := range cached {
		attr, cons, ok := engine.RunForTest(e.Node)
		done := checkedRun{e.Node.ID(), e.Table}
		if !ok || checked[done] {
			continue
		}
		in := tables[key{subsetKey(e.Filter), e.Node.Children()[0].ID()}]
		if in == nil {
			continue
		}
		checked[done] = true
		want, between, err := refRun(in, attr, cons)
		if err != nil {
			t.Fatalf("%s: %s: %v", where, e.Node.Signature(), err)
		}
		if !e.Table.StructuralEq(want) {
			t.Fatalf("%s: %s built\n%s\nthe reference\n%s", where, e.Node.Signature(), e.Table, want)
		}
		if e.StageAssigns != between {
			t.Fatalf("%s: %s reports %d assignments between its stages, the reference %d", where, e.Node.Signature(), e.StageAssigns, between)
		}
		runs++
		if len(cons) > 1 {
			multi++
		}
	}
	return runs, multi
}

// replayed is what one replay of a sequence of additions leaves to compare.
type replayed struct {
	tables []*compact.Table // every base and trial result, in order
	sums   []int            // SumAssignments of every base plan
	// verify, refine, fallbacks, func, stages: the deterministic work done.
	work        [5]int64
	runs, multi int // runs checkRuns held to the reference; of them, with 2+ stages
}

// replay drives a context the way a session does: execute the program,
// then repeatedly evaluate the next addition as a trial linked to the base
// plan, fold one or two additions in (two on the same step is the corner
// TestRunResumesBehindTrial pins) and execute the new base plan linked to
// the old one. Without delta reuse every plan gets a context of its own, so
// every run is evaluated cold. After every execution checkRuns holds each
// run the context holds to the reference.
func replay(t *testing.T, where string, task *corpus.Task, c *corpus.Corpus, adds []addition, seed int64, workers int, delta bool) replayed {
	t.Helper()
	env := task.Env(c)
	var ctx *engine.Context
	var out replayed
	checked := map[checkedRun]bool{}
	tally := func() {
		if ctx != nil {
			s := ctx.Stats
			for i, n := range []int64{s.VerifyCalls, s.RefineCalls, s.LimitFallbacks, s.FuncCalls, s.ConstraintStages} {
				out.work[i] += n
			}
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
		runs, multi := checkRuns(t, where, ctx, checked)
		out.runs, out.multi = out.runs+runs, out.multi+multi
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

// TestRunMatchesReference: over random constraint subsets on generated
// pages, every run a session-shaped replay evaluates builds refRun's rows
// and stage total, serially and on eight workers, with delta reuse on and
// off. The four replays build the same tables and SumAssignments, and the
// two at one delta setting do the same Verify/Refine/fallback work.
func TestRunMatchesReference(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, task := range runTasks(t) {
		for seed := int64(1); seed <= seeds; seed++ {
			c := task.Generate(30, seed)
			adds := drawAdditions(rand.New(rand.NewSource(seed)), task)
			var first replayed
			serial := map[bool]replayed{}
			for _, workers := range []int{1, 8} {
				for _, delta := range []bool{false, true} {
					where := fmt.Sprintf("%s seed=%d workers=%d delta=%t", task.ID, seed, workers, delta)
					got := replay(t, where, task, c, adds, seed, workers, delta)
					if got.multi == 0 {
						t.Fatalf("%s: %d runs checked, none of more than one stage", where, got.runs)
					}
					if first.tables == nil {
						first = got
					}
					for i := range got.tables {
						if !got.tables[i].StructuralEq(first.tables[i]) {
							t.Fatalf("%s: table %d differs from the serial cold replay's\n%s\nserial cold:\n%s", where, i, got.tables[i], first.tables[i])
						}
					}
					if !slices.Equal(got.sums, first.sums) {
						t.Fatalf("%s: SumAssignments %v, the serial cold replay's %v", where, got.sums, first.sums)
					}
					if s, ok := serial[delta]; !ok {
						serial[delta] = got
					} else if got.work != s.work {
						t.Fatalf("%s: verify/refine/fallbacks/func/stages %v, serially %v", where, got.work, s.work)
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
// half way through its input. A run finishes every stage of the tuples it
// reached: its partial table holds, finished, the uncut result's tuples of
// every page it reached; what it did not reach is reported unprocessed, by
// one cut loop.
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
				if site != "feature" {
					return nil
				}
				if units++; units == cutAfter {
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

	if run.Degraded == nil || !run.Degraded.DeadlineExpired {
		t.Fatalf("cut not reported: %+v", run.Degraded)
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
	// Reached or reported, never both, and nothing lost: a page is
	// unprocessed exactly when the run did not get to it.
	got := docsOf(run)
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
	if rctx.Stats.DeadlineCuts != 1 {
		t.Fatalf("%d loops cut; want the run's one", rctx.Stats.DeadlineCuts)
	}
}

// TestRunUnderFeatureFault injects persistent errors at the feature
// boundary under the quarantine policy: the run's single guard around a
// tuple's stages quarantines the tuple's page, so the surviving table is
// the fault-free one less the tuples of the quarantined pages, serially
// and on eight workers.
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
	survive := func(workers int, faults bool) (*compact.Table, []string) {
		env := t8.Env(c)
		if faults {
			env.FaultHook = fault.New(11, fault.Rule{Site: "feature", Mode: fault.ModeError, Num: 1, Den: 5}).Hook()
		}
		plan, err := engine.Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		ctx := engine.NewContext(env)
		ctx.Workers = workers
		tbl, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tbl, ctx.QuarantinedDocs()
	}
	clean, _ := survive(1, false)
	for _, workers := range []int{1, 8} {
		got, quarantined := survive(workers, true)
		if len(quarantined) == 0 || len(quarantined) == 40 {
			t.Fatalf("workers=%d: %d of 40 pages quarantined; the faults show nothing", workers, len(quarantined))
		}
		want := compact.NewTable(clean.Cols...)
		for _, tp := range clean.Tuples {
			if !slices.Contains(quarantined, tp.Cells[0].Assigns[0].Span.Doc().ID()) {
				want.Tuples = append(want.Tuples, tp)
			}
		}
		if !got.StructuralEq(want) {
			t.Fatalf("workers=%d: quarantined %v; surviving table\n%s\nthe fault-free table less those pages\n%s", workers, quarantined, got, want)
		}
	}
}

// TestSessionsMatchReference runs whole sessions with the paper's
// convergence window of 3 and holds every run their contexts still hold to
// refRun (checkRuns). The convergence monitor reads SumAssignments, which
// counts the tables between a run's stages: a run that reported a wrong
// total would move convergence. A Simulation session also folds two answers
// on one attribute in one step after trials have evaluated the first, so
// its runs resume behind trials. Serial and eight-worker sessions must
// agree iteration by iteration.
func TestSessionsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("whole sessions; skipped in -short")
	}
	t7, err := corpus.TaskByID("T7")
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range append(runTasks(t), t7) {
		c := task.Generate(60, 4)
		for _, strategy := range []assistant.Strategy{assistant.Simulation{}, assistant.Sequential{}} {
			var serial *assistant.Result
			for _, workers := range []int{1, 8} {
				where := fmt.Sprintf("%s %T workers=%d", task.ID, strategy, workers)
				var ctx *engine.Context
				restore := engine.CaptureContextsForTest(func(c *engine.Context) { ctx = c })
				s := assistant.NewSession(task.Env(c), alog.MustParse(task.Program), task.Oracle(),
					assistant.Config{Strategy: strategy, SubsetSeed: 4, Workers: workers})
				restore()
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("%s: the session did not converge; the monitor was not exercised", where)
				}
				if runs, multi := checkRuns(t, where, ctx, map[checkedRun]bool{}); multi == 0 {
					t.Fatalf("%s: %d runs checked, none of more than one stage", where, runs)
				}
				if serial == nil {
					serial = res
					continue
				}
				if len(res.Iterations) != len(serial.Iterations) || res.QuestionsAsked != serial.QuestionsAsked {
					t.Fatalf("%s: %d iterations and %d questions, serially %d and %d", where,
						len(res.Iterations), res.QuestionsAsked, len(serial.Iterations), serial.QuestionsAsked)
				}
				for i, it := range res.Iterations {
					if si := serial.Iterations[i]; it.Assignments != si.Assignments || it.Tuples != si.Tuples || it.Mode != si.Mode {
						t.Fatalf("%s: iteration %d (%s) has %d tuples and %d assignments, serially (%s) %d and %d", where,
							it.N, it.Mode, it.Tuples, it.Assignments, si.Mode, si.Tuples, si.Assignments)
					}
				}
				if res.Final.String() != serial.Final.String() {
					t.Fatalf("%s: final table differs from the serial session's", where)
				}
			}
		}
	}
}
