package assistant_test

// Delta-vs-full equivalence: for every task T1–T9, applying every answer in
// the question space must yield byte-identical tables whether the changed
// plan is evaluated incrementally (delta reuse against the previous plan
// version) or recomputed from scratch — at Workers 1 and 8, under -race.

import (
	"fmt"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/feature"
)

// answerValues enumerates the answer domain V for a question: the three
// boolean values, or the oracle's candidate values for parametric features.
func answerValues(o *assistant.MapOracle, q assistant.Question) []string {
	if q.Kind == feature.KindBoolean {
		return assistant.BoolValues
	}
	return o.Candidates(q.Attr, q.Feature)
}

// TestDeltaMatchesFullEvaluation replays a whole refinement session for
// each task: it walks the question space, and at every step executes each
// candidate answer as a one-constraint trial two ways — on a shared
// delta-enabled context primed with the current base plan (the
// session/simulation path) and on a fresh context without delta reuse
// (full recomputation) — before folding the oracle's real answer into the
// base program for the next step. Every table must be byte-identical both
// ways, and across the sweep the delta path must actually replay tuples
// (TuplesReused > 0), or the test is vacuous.
func TestDeltaMatchesFullEvaluation(t *testing.T) {
	const records = 12
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var reused int64
			for _, task := range corpus.Tasks() {
				c := task.Generate(records, 1)
				env := task.Env(c)
				prog := alog.MustParse(task.Program)
				oracle := task.Oracle()

				// fullRun recomputes a program from scratch on a fresh
				// context (no delta, no warm cache).
				fullRun := func(p *alog.Program, what string) string {
					fctx := engine.NewContext(env)
					fctx.Workers = workers
					plan, err := engine.Compile(p, env)
					if err != nil {
						t.Fatalf("%s: compile %s: %v", task.ID, what, err)
					}
					tbl, err := plan.Execute(fctx)
					if err != nil {
						t.Fatalf("%s: full execute %s: %v", task.ID, what, err)
					}
					return tbl.String()
				}

				// Prime the delta context with the initial plan, like the
				// session's first iteration.
				dctx := engine.NewContext(env)
				dctx.Workers = workers
				dctx.EnableDelta()
				base, err := engine.Compile(prog, env)
				if err != nil {
					t.Fatalf("%s: compile base: %v", task.ID, err)
				}
				if _, err := base.Execute(dctx); err != nil {
					t.Fatalf("%s: execute base: %v", task.ID, err)
				}

				asked := map[string]bool{}
				steps := 0
				for {
					space := assistant.QuestionSpaceForTest(prog, env.Features, asked)
					if len(space) == 0 {
						break
					}
					q := space[0]
					asked[q.KeyForTest()] = true
					for _, v := range answerValues(oracle, q) {
						trial := prog.Clone()
						if err := trial.AddConstraint(q.Attr, q.Feature, v); err != nil {
							t.Fatalf("%s: add %s=%s to %s: %v", task.ID, q.Feature, v, q.Attr, err)
						}
						plan, err := engine.Compile(trial, env)
						if err != nil {
							t.Fatalf("%s: compile trial %s=%s: %v", task.ID, q.Feature, v, err)
						}
						dctx.RegisterDelta(base.Root, plan.Root)
						dt, err := plan.Execute(dctx)
						if err != nil {
							t.Fatalf("%s: delta execute %s=%s: %v", task.ID, q.Feature, v, err)
						}
						if got, want := dt.String(), fullRun(trial, fmt.Sprintf("trial %s=%s", q.Feature, v)); got != want {
							t.Errorf("%s: %s %s=%s: delta table differs from full recomputation\ndelta:\n%s\nfull:\n%s",
								task.ID, q.Attr, q.Feature, v, got, want)
						}
					}
					// Fold the oracle's real answer into the base program, the
					// way Session.Run applies accepted answers, and advance the
					// delta chain to the new base plan.
					if ans := oracle.Answer(q); ans.Known {
						if err := prog.AddConstraint(q.Attr, q.Feature, ans.Value); err != nil {
							t.Fatalf("%s: apply %s=%s: %v", task.ID, q.Feature, ans.Value, err)
						}
						next, err := engine.Compile(prog, env)
						if err != nil {
							t.Fatalf("%s: compile refined base: %v", task.ID, err)
						}
						dctx.RegisterDelta(base.Root, next.Root)
						dt, err := next.Execute(dctx)
						if err != nil {
							t.Fatalf("%s: delta execute refined base: %v", task.ID, err)
						}
						if got, want := dt.String(), fullRun(prog, "refined base"); got != want {
							t.Errorf("%s: refined base after %s=%s: delta table differs from full recomputation",
								task.ID, q.Feature, ans.Value)
						}
						base = next
					}
					steps++
				}
				if steps == 0 {
					t.Fatalf("%s: empty question space", task.ID)
				}
				reused += dctx.Stats.Snapshot().TuplesReused
			}
			if reused == 0 {
				t.Error("delta evaluation never replayed a tuple across all tasks: the equivalence sweep is vacuous")
			}
		})
	}
}

// TestSessionDeltaMatchesFullSession runs whole assistant sessions with
// delta reuse on (the default) and off, at Workers 1 and 8: transcripts and
// final tables must be byte-identical in all four runs.
func TestSessionDeltaMatchesFullSession(t *testing.T) {
	for _, taskID := range []string{"T3", "T9"} {
		task, err := corpus.TaskByID(taskID)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int, disable bool) *assistant.Result {
			c := task.Generate(20, 1)
			env := task.Env(c)
			session := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.OracleConfig(assistant.Config{
				Strategy:   assistant.Simulation{},
				SubsetSeed: 1,
				Workers:    workers,
			}, !disable, true))
			res, err := session.Run()
			if err != nil {
				t.Fatalf("%s workers=%d disable=%v: %v", taskID, workers, disable, err)
			}
			return res
		}
		ref := run(1, true)
		for _, workers := range []int{1, 8} {
			got := run(workers, false)
			if got.Transcript() != ref.Transcript() {
				t.Errorf("%s: delta transcript (workers=%d) differs from full serial run\ndelta:\n%s\nfull:\n%s",
					taskID, workers, got.Transcript(), ref.Transcript())
			}
			if got.Final.String() != ref.Final.String() {
				t.Errorf("%s: delta final table (workers=%d) differs from full serial run", taskID, workers)
			}
			if got.Stats.Snapshot().TuplesReused == 0 {
				t.Errorf("%s: delta session (workers=%d) replayed no tuples", taskID, workers)
			}
		}
	}
}

// TestDeltaReuseSavesFeatureCalls pins what the delta memo buys: with it
// off, the same sessions reach the same final tables but make at least
// twice the Verify and Refine calls. The memo, constraint-run stage
// resumption included, is what keeps feature calls down; a change that
// drops any part of it must keep this test green.
func TestDeltaReuseSavesFeatureCalls(t *testing.T) {
	const records = 24
	for _, taskID := range []string{"T3", "T6", "T8", "T9"} {
		task, err := corpus.TaskByID(taskID)
		if err != nil {
			t.Fatal(err)
		}
		run := func(delta bool) (string, int64) {
			env := task.Env(task.Generate(records, 1))
			session := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.OracleConfig(assistant.Config{
				Strategy:   assistant.Simulation{},
				SubsetSeed: 1,
				Workers:    1,
			}, delta, true))
			res, err := session.Run()
			if err != nil {
				t.Fatalf("%s delta=%v: %v", taskID, delta, err)
			}
			return res.Final.String(), res.Stats.VerifyCalls + res.Stats.RefineCalls
		}
		onFinal, on := run(true)
		offFinal, off := run(false)
		if onFinal != offFinal {
			t.Errorf("%s: final table differs with delta reuse off", taskID)
		}
		t.Logf("%s: Verify+Refine calls %d with delta, %d without (%.1fx)", taskID, on, off, float64(off)/float64(on))
		if off < 2*on {
			t.Errorf("%s: delta reuse saves too little: %d feature calls with it, %d without (want at least 2x)", taskID, on, off)
		}
	}
}

// TestCacheBudgetEviction simulates a long session under a tight
// CacheBudget: the reuse cache must stay within budget, evictions must be
// counted, and the outcome must match an unbudgeted run byte for byte.
func TestCacheBudgetEviction(t *testing.T) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 64 << 10
	run := func(budget int64) *assistant.Result {
		c := task.Generate(40, 1)
		env := task.Env(c)
		// Workers=1: LRU touch order is deterministic only serially.
		session := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.Config{
			Strategy:    assistant.Simulation{},
			SubsetSeed:  1,
			Workers:     1,
			CacheBudget: budget,
		})
		res, err := session.Run()
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		return res
	}
	bounded := run(budget)
	snap := bounded.Stats.Snapshot()
	if snap.CacheEvictions+snap.BlockIdxEvict == 0 {
		t.Errorf("no evictions under a %d-byte budget (cache bytes: %d)", budget, snap.CacheBytes)
	}
	if snap.CacheBytes > budget {
		t.Errorf("cache ended at %d bytes, over the %d-byte budget", snap.CacheBytes, budget)
	}
	// Evictions force re-evaluations, so the Evals/CacheHits counters in the
	// transcript legitimately differ; the semantic outcome must not.
	unbounded := run(0)
	if bounded.Final.String() != unbounded.Final.String() {
		t.Error("budgeted final table differs from unbudgeted")
	}
	if len(bounded.Iterations) != len(unbounded.Iterations) {
		t.Fatalf("budgeted session took %d iterations, unbudgeted %d",
			len(bounded.Iterations), len(unbounded.Iterations))
	}
	for i, it := range bounded.Iterations {
		ref := unbounded.Iterations[i]
		if it.Tuples != ref.Tuples || it.Assignments != ref.Assignments || it.Mode != ref.Mode {
			t.Errorf("iteration %d: budgeted (%d tuples, %d assignments, %s) vs unbudgeted (%d, %d, %s)",
				it.N, it.Tuples, it.Assignments, it.Mode, ref.Tuples, ref.Assignments, ref.Mode)
		}
	}
}
