package corpus

import (
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
)

// runTask executes a full assistant session for a task at the given size.
func runTask(t *testing.T, id string, records int, strategy assistant.Strategy) (*assistant.Result, map[string]bool, *Corpus) {
	t.Helper()
	task, err := TaskByID(id)
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(records, 1)
	env := task.Env(c)
	prog := alog.MustParse(task.Program)
	s := assistant.NewSession(env, prog, task.Oracle(), assistant.Config{Strategy: strategy})
	res, err := s.Run()
	if err != nil {
		t.Fatalf("task %s: %v", id, err)
	}
	return res, task.Truth(c), c
}

// The selection tasks must converge to exactly the ground truth under the
// simulation strategy: 100% superset, every result cell pinned, keys equal.
func TestSelectionTasksConvergeExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("full sessions are slow")
	}
	for _, id := range []string{"T1", "T2", "T4", "T5", "T7", "T8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			res, truth, _ := runTask(t, id, 50, assistant.Simulation{})
			if res.FinalTuples != len(truth) {
				t.Errorf("%s: final=%d truth=%d", id, res.FinalTuples, len(truth))
			}
			keys, exact := ResultKeys(res.Final)
			if !exact {
				t.Errorf("%s: result cells not pinned", id)
			}
			missing, extra := KeysMatch(keys, truth)
			if len(missing) != 0 || len(extra) != 0 {
				t.Errorf("%s: missing=%v extra=%v", id, missing, extra)
			}
		})
	}
}

// Join tasks must never lose a correct answer (superset semantics), and
// the simulation strategy must land reasonably close to the truth.
func TestJoinTasksSupersetAndClose(t *testing.T) {
	if testing.Short() {
		t.Skip("full sessions are slow")
	}
	for _, id := range []string{"T3", "T9"} {
		id := id
		t.Run(id, func(t *testing.T) {
			res, truth, _ := runTask(t, id, 40, assistant.Simulation{})
			keys, _ := ResultKeys(res.Final)
			missing, _ := KeysMatch(keys, truth)
			if len(missing) != 0 {
				t.Errorf("%s: superset violated, missing %v", id, missing)
			}
			if ss := SupersetPercent(res.FinalTuples, len(truth)); ss > 800 {
				t.Errorf("%s: superset too large after convergence: %.0f%%", id, ss)
			}
		})
	}
}

// The paper's Table 5 contrast: on join-heavy tasks the sequential
// strategy converges prematurely with a much larger superset than the
// simulation strategy.
func TestSequentialVsSimulationContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("full sessions are slow")
	}
	resSeq, truth, _ := runTask(t, "T9", 40, assistant.Sequential{})
	resSim, _, _ := runTask(t, "T9", 40, assistant.Simulation{})
	ssSeq := SupersetPercent(resSeq.FinalTuples, len(truth))
	ssSim := SupersetPercent(resSim.FinalTuples, len(truth))
	if ssSeq <= ssSim {
		t.Errorf("expected seq superset (%.0f%%) > sim superset (%.0f%%)", ssSeq, ssSim)
	}
	if resSeq.QuestionsAsked >= resSim.QuestionsAsked {
		t.Errorf("seq should ask fewer questions (premature convergence): %d vs %d",
			resSeq.QuestionsAsked, resSim.QuestionsAsked)
	}
}

// DBLife tasks (Table 6) must converge to exactly the ground-truth tuple
// counts under the simulation strategy.
func TestDBLifeTasksConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("full sessions are slow")
	}
	for _, task := range DBLifeTasks() {
		task := task
		t.Run(task.ID, func(t *testing.T) {
			c := task.Generate(80, 1)
			env := task.Env(c)
			prog := alog.MustParse(task.Program)
			s := assistant.NewSession(env, prog, task.Oracle(), assistant.Config{Strategy: assistant.Simulation{}})
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			truth := task.Truth(c)
			if res.FinalTuples != len(truth) {
				t.Errorf("%s: final=%d truth=%d", task.ID, res.FinalTuples, len(truth))
			}
			if missing := UncoveredTruth(res.Final, truth); len(missing) > 0 {
				t.Errorf("%s: missing=%d: %v", task.ID, len(missing), missing)
			}
		})
	}
}

// Subset-mode iteration sizes must never grow: refinement only narrows.
func TestIterationSizesMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("full sessions are slow")
	}
	res, _, _ := runTask(t, "T8", 50, assistant.Simulation{})
	prev := -1
	for _, it := range res.Iterations {
		if it.Mode != "subset" {
			continue
		}
		if prev >= 0 && it.Tuples > prev {
			t.Fatalf("iteration %d grew from %d to %d", it.N, prev, it.Tuples)
		}
		prev = it.Tuples
	}
}
