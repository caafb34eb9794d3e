package assistant_test

import (
	"fmt"
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
					s.CheckPlansForTest(func(prog *alog.Program, q assistant.Question, v string, plan *engine.Plan) {
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
