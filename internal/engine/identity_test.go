package engine_test

// Node identity is decided where a node is built (nodes.go): these tests
// hold that one decision to the renderings it replaced as the reuse key.

import (
	"slices"
	"strconv"
	"sync"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
)

// TestNodeIdentityIsStructure: over every task program, and every base
// and trial plan a short Simulation session of each builds, two nodes are
// the same node exactly when their signatures are equal, and exactly when
// their plan renderings are.
func TestNodeIdentityIsStructure(t *testing.T) {
	steps := 4
	if testing.Short() {
		steps = 2
	}
	for _, task := range append(corpus.Tasks(), corpus.DBLifeTasks()...) {
		env := task.Env(task.Generate(12, 1))
		sess := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(),
			assistant.Config{Strategy: assistant.Simulation{}, Workers: 4})
		var answers []assistant.Answer
		for i := 0; i < steps; i++ {
			st, err := sess.Step(answers)
			if err != nil {
				t.Fatalf("%s: %v", task.ID, err)
			}
			if st.Done {
				break
			}
			answers = answers[:0]
			for _, q := range st.Questions {
				answers = append(answers, task.Oracle().Answer(q))
			}
		}
		nodes := engine.InternedForTest(env)
		if len(nodes) < 50 {
			t.Fatalf("%s: %d nodes: too few for a session's trials", task.ID, len(nodes))
		}
		bySig, byPlan, byID := map[string]engine.Node{}, map[string]engine.Node{}, map[engine.NodeID]engine.Node{}
		for _, n := range nodes {
			for what, other := range map[string]engine.Node{
				"signature":   bySig[n.Signature()],
				"plan string": byPlan[engine.PlanString(n)],
				"id":          byID[n.ID()],
			} {
				if other != nil {
					t.Fatalf("%s: two nodes with one %s:\n%s\n%s", task.ID, what, n.Signature(), other.Signature())
				}
			}
			bySig[n.Signature()], byPlan[engine.PlanString(n)], byID[n.ID()] = n, n, n
		}
		// And what a node was built from finds it again: the session's final
		// program compiles onto nodes the table already holds.
		plan, err := engine.Compile(sess.Program(), env)
		if err != nil {
			t.Fatal(err)
		}
		if now := len(engine.InternedForTest(env)); bySig[plan.Root.Signature()] != plan.Root || now != len(nodes) {
			t.Fatalf("%s: recompiling the session's program built new nodes (%d, were %d)", task.ID, now, len(nodes))
		}
	}
}

// TestConcurrentCompilesShareOneRoot: eight goroutines compiling one
// program against one Env all get the same root.
func TestConcurrentCompilesShareOneRoot(t *testing.T) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	env := task.Env(task.Generate(12, 1))
	roots := make([]engine.Node, 8)
	var wg sync.WaitGroup
	for i := range roots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, err := engine.Compile(alog.MustParse(task.Program), env)
			if err != nil {
				t.Error(err)
				return
			}
			roots[i] = plan.Root
		}()
	}
	wg.Wait()
	for i, r := range roots {
		if r == nil || r != roots[0] {
			t.Fatalf("goroutine %d got root %v, goroutine 0 %v", i, r, roots[0])
		}
	}
}

// TestEnvsNeverShareCacheEntries: the same program compiled against two
// Envs is two plans with equal signatures and distinct identities, and
// under one shared Context neither hits an entry the other wrote.
func TestEnvsNeverShareCacheEntries(t *testing.T) {
	task, err := corpus.TaskByID("T8")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(12, 1)
	envA, envB := task.Env(c), task.Env(c)
	compile := func(env *engine.Env) *engine.Plan {
		plan, err := engine.Compile(alog.MustParse(task.Program), env)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	a, b := compile(envA), compile(envB)
	if a.Root == b.Root || a.Root.ID() == b.Root.ID() || a.Root.Signature() != b.Root.Signature() {
		t.Fatal("want one signature under two identities")
	}
	ctx := engine.NewContext(envA)
	want, err := b.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wrote := ctx.Stats
	if wrote.CacheHits != 0 || wrote.NodesEvaluated != int64(engine.CountNodes(b.Root)) {
		t.Fatalf("first plan: %d hits, %d of %d nodes evaluated", wrote.CacheHits, wrote.NodesEvaluated, engine.CountNodes(b.Root))
	}
	got, err := a.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.CacheHits != 0 || ctx.Stats.NodesEvaluated != 2*wrote.NodesEvaluated {
		t.Fatalf("second Env's plan: %d hits, %d nodes evaluated after the first plan's %d", ctx.Stats.CacheHits, ctx.Stats.NodesEvaluated, wrote.NodesEvaluated)
	}
	if got.String() != want.String() {
		t.Fatal("the two plans' tables differ")
	}
	if _, err := a.Execute(ctx); err != nil || ctx.Stats.CacheHits != 1 {
		t.Fatalf("a plan's own entries: %d hits, err %v", ctx.Stats.CacheHits, err)
	}
}

// BenchmarkTrialPlan builds one Simulation trial against a converged T8
// program whose base plan the Env already holds, two ways: compile — clone
// the program, add a constraint, compile, as sessions did — and edit —
// WithConstraint on the base plan, as sessions do.
// Every iteration of these adds a constraint no earlier one did, so what is
// timed is a trial's first build: the nodes from the touched run up to the
// root are new, everything else is found. A third leg, repeat, times the
// same edit again and again: every node is found.
func BenchmarkTrialPlan(b *testing.B) {
	task, err := corpus.TaskByID("T8")
	if err != nil {
		b.Fatal(err)
	}
	env := task.Env(task.Generate(24, 1))
	// A window no session reaches: every question gets asked, and the
	// program carries every constraint the oracle knows.
	sess := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.Config{Workers: 1, ConvergenceWindow: 50})
	if _, err := sess.Run(); err != nil {
		b.Fatal(err)
	}
	prog := sess.Program()
	base, err := engine.Compile(prog, env)
	if err != nil {
		b.Fatal(err)
	}
	attr := alog.AttrRef{Pred: "extractAmazon", Var: "up"}
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trial := prog.Clone()
			trialValue++
			if err := trial.AddConstraint(attr, "max-length", strconv.Itoa(trialValue)); err != nil {
				b.Fatal(err)
			}
			plan, err := engine.Compile(trial, env)
			if err != nil {
				b.Fatal(err)
			}
			trialPlanSink = plan
		}
	})
	b.Run("edit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trialValue++
			plan, err := base.WithConstraint(attr, "max-length", strconv.Itoa(trialValue))
			if err != nil {
				b.Fatal(err)
			}
			trialPlanSink = plan
		}
	})
	// One edit, built before the timer and then again: every node a hit.
	b.Run("repeat", func(b *testing.B) {
		trialValue++
		value := strconv.Itoa(trialValue)
		if _, err := base.WithConstraint(attr, "max-length", value); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := base.WithConstraint(attr, "max-length", value)
			if err != nil {
				b.Fatal(err)
			}
			trialPlanSink = plan
		}
	})
}

var trialPlanSink *engine.Plan

// TestInternHitAllocatesNothing: every node of the converged task plans,
// of the precise baselines and of a program with a union and a p-function
// selection, built again from its own fields, is the node itself, and
// finding it allocates nothing.
func TestInternHitAllocatesNothing(t *testing.T) {
	kinds := map[engine.OpKind]bool{}
	rebuild := func(id string, env *engine.Env, prog *alog.Program) {
		if _, err := engine.Compile(prog, env); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, n := range engine.InternedForTest(env) {
			kinds[engine.KindForTest(n)] = true
			if got := engine.RebuildForTest(env, n); got != n {
				t.Fatalf("%s: rebuilding %s built another node", id, n.Signature())
			}
			if a := testing.AllocsPerRun(20, func() { engine.RebuildForTest(env, n) }); a != 0 {
				t.Errorf("%s: rebuilding %s: %v allocations", id, n.Signature(), a)
			}
		}
	}
	for _, task := range corpus.Tasks() {
		c := task.Generate(12, 1)
		prog := alog.MustParse(task.Program)
		for _, attr := range prog.Attrs() {
			answers := task.Oracle().Answers[attr.String()]
			var features []string
			for f := range answers {
				features = append(features, f)
			}
			slices.Sort(features)
			for _, f := range features {
				if v := answers[f]; v != "unknown" {
					if err := prog.AddConstraint(attr, f, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		rebuild(task.ID, task.Env(c), prog)
		if precise, err := corpus.PreciseTaskByID(task.ID); err == nil {
			rebuild(task.ID+" precise", precise.Env(task, c), alog.MustParse(precise.Program))
		}
	}
	t3, err := corpus.TaskByID("T3")
	if err != nil {
		t.Fatal(err)
	}
	rebuild("union", t3.Env(t3.Generate(12, 1)), alog.MustParse(`
Q(t) :- r(x, t, u), similar(t, u).
r(x, <t>, <u>) :- IMDB(x), from(x, t), from(x, u).
r(y, <t>, <u>) :- Ebert(y), from(y, t), from(y, u), bold-font(t) = yes.
`))
	for k := engine.OpScan; k <= engine.OpProc; k++ {
		if !kinds[k] {
			t.Errorf("no %s node rebuilt", k)
		}
	}
}

// trialValue numbers the benchmark's trials, so that no leg and no repeated
// run builds a constraint an earlier one did.
var trialValue = 100
