package assistant_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
)

// TestSessionPlansEqualCompile: every base plan and every trial plan a
// session builds by editing is the plan Compile builds from scratch for the
// program it stands for, over whole T1–T9 sessions at 24 records, under both
// strategies, Workers 1 and 8, and each arm of the delta oracle.
func TestSessionPlansEqualCompile(t *testing.T) {
	tasks := corpus.Tasks()
	if testing.Short() {
		tasks = tasks[len(tasks)-2:]
	}
	for _, task := range tasks {
		c := task.Generate(24, 1)
		for _, strat := range []assistant.Strategy{assistant.Sequential{}, assistant.Simulation{}} {
			for _, workers := range []int{1, 8} {
				for _, delta := range []bool{true, false} {
					name := fmt.Sprintf("%s/%T/workers=%d/delta=%v", task.ID, strat, workers, delta)
					env := task.Env(c)
					s := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.OracleConfig(assistant.Config{
						Strategy: strat, SubsetSeed: 1, Workers: workers,
					}, delta))
					var bases, trials atomic.Int64
					s.CheckPlansForTest(func(prog *alog.Program, q assistant.Question, v string, plan *engine.Plan, _ int) {
						prog = prog.Clone()
						if v != "" {
							trials.Add(1)
							if err := prog.AddConstraint(q.Attr, q.Feature, v); err != nil {
								t.Errorf("%s: %s = %q: %v", name, q, v, err)
								return
							}
						} else {
							bases.Add(1)
						}
						want, err := engine.Compile(prog, env)
						if err != nil {
							t.Errorf("%s: %v", name, err)
							return
						}
						if plan.Root != want.Root {
							t.Errorf("%s: %q = %q: edited plan is not the compiled one\n%s", name, q, v, engine.PlanString(want.Root))
						}
					})
					if _, err := s.Run(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if bases.Load() < 2 || (strat == assistant.Simulation{} && trials.Load() == 0) {
						t.Fatalf("%s: %d base plans and %d trials checked", name, bases.Load(), trials.Load())
					}
				}
			}
		}
	}
}

// TestPlansHoldNoIdentityProjection: no compiled or trial plan of a T1–T9
// or DBLife Simulation session holds a projection that keeps every column
// of its input in place under its name — such a π computes nothing, and
// the compiler builds none.
func TestPlansHoldNoIdentityProjection(t *testing.T) {
	for _, task := range append(corpus.Tasks(), corpus.DBLifeTasks()...) {
		s := assistant.NewSession(task.Env(task.Generate(24, 1)), alog.MustParse(task.Program), task.Oracle(),
			assistant.Config{Strategy: assistant.Simulation{}, SubsetSeed: 1, Workers: 2})
		var mu sync.Mutex
		var plans, found int
		s.CheckPlansForTest(func(_ *alog.Program, q assistant.Question, v string, plan *engine.Plan, _ int) {
			ids := identityProjections(plan.Root)
			mu.Lock()
			defer mu.Unlock()
			plans++
			for _, sig := range ids {
				if found++; found <= 3 {
					t.Errorf("%s: %q = %q: identity projection %s", task.ID, q, v, sig)
				}
			}
		})
		if _, err := s.Run(); err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if plans < 2 {
			t.Fatalf("%s: %d plans checked", task.ID, plans)
		}
	}
}

// identityProjections lists the signatures of the projections under root
// whose source and output columns both equal their input's columns.
func identityProjections(root engine.Node) []string {
	var out []string
	seen := map[engine.NodeID]bool{}
	var walk func(n engine.Node)
	walk = func(n engine.Node) {
		if seen[n.ID()] {
			return
		}
		seen[n.ID()] = true
		if rest, ok := strings.CutPrefix(n.Signature(), "project["); ok {
			head, _, _ := strings.Cut(rest, "]")
			src, dst, _ := strings.Cut(head, "->")
			in := strings.Join(n.Children()[0].Columns(), ",")
			if src == in && dst == in {
				out = append(out, n.Signature())
			}
		}
		for _, k := range n.Children() {
			walk(k)
		}
	}
	walk(root)
	return out
}

// TestIterationSizesMonotone: a constraint never grows the result
// (ROADMAP item 1's first metamorphic law). Over whole Simulation sessions
// of T1–T9 and the DBLife tasks, no subset iteration is larger than the
// one before it, and no trial is larger over the subset than the base plan
// it edits.
func TestIterationSizesMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("full sessions are slow")
	}
	for _, task := range append(corpus.Tasks(), corpus.DBLifeTasks()...) {
		c := task.Generate(50, 1)
		s := assistant.NewSession(task.Env(c), alog.MustParse(task.Program), task.Oracle(), assistant.Config{Strategy: assistant.Simulation{}})
		var mu sync.Mutex
		base, trials := -1, 0
		s.CheckPlansForTest(func(_ *alog.Program, q assistant.Question, v string, _ *engine.Plan, size int) {
			mu.Lock()
			defer mu.Unlock()
			if v == "" {
				base = size
				return
			}
			trials++
			if size > base {
				t.Errorf("%s: the trial %s = %q grew the subset result from %d to %d", task.ID, q, v, base, size)
			}
		})
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if trials == 0 {
			t.Fatalf("%s: no trial checked", task.ID)
		}
		prev := -1
		for _, it := range res.Iterations {
			if it.Mode != "subset" {
				continue
			}
			if prev >= 0 && it.Tuples > prev {
				t.Errorf("%s: iteration %d grew from %d to %d", task.ID, it.N, prev, it.Tuples)
			}
			prev = it.Tuples
		}
	}
}
