package assistant_test

// Differential suite for the plan optimizer through the full
// session loop: optimizer on versus off over the T1–T9 question space
// must leave transcripts and final tables byte-identical — at Workers 1
// and 8, delta reuse on and off, and under the fault injector (plan
// rewrites commute with quarantine).

import (
	"fmt"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/fault"
	"iflex/internal/store"
	"iflex/internal/text"
)

// optSessionConfig mirrors chaosSessionConfig: a data-independent
// question sequence, so every arm asks the same questions.
func optSessionConfig(workers int, delta, optimize bool) assistant.Config {
	return assistant.OracleConfig(assistant.Config{
		Strategy:          assistant.Sequential{},
		MaxIterations:     3,
		ConvergenceWindow: 100,
		SubsetSeed:        1,
		Workers:           workers,
	}, delta, optimize)
}

// TestOptimizerSessionDifferential runs every paper task's refinement
// session with the optimizer off (the pre-optimizer engine, Workers 1,
// delta on) as baseline, then with the optimizer on across Workers 1/8
// and delta on/off: transcripts and final tables must be byte-identical.
func TestOptimizerSessionDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full task sweep")
	}
	for _, task := range corpus.Tasks() {
		task := task
		t.Run(task.ID, func(t *testing.T) {
			t.Parallel()
			const records = 24
			c := task.Generate(records, 1)
			prog := alog.MustParse(task.Program)

			run := func(workers int, delta, optimize bool) (string, string) {
				res, err := assistant.NewSession(task.Env(c), prog, task.Oracle(),
					optSessionConfig(workers, delta, optimize)).Run()
				if err != nil {
					t.Fatalf("workers=%d delta=%v optimize=%v: %v", workers, delta, optimize, err)
				}
				return res.Transcript(), res.Final.String()
			}

			baseTrans, baseTable := run(1, true, false)
			for _, arm := range []struct {
				workers int
				delta   bool
			}{{1, true}, {8, true}, {1, false}, {8, false}} {
				trans, table := run(arm.workers, arm.delta, true)
				if trans != baseTrans {
					t.Errorf("workers=%d delta=%v: optimized transcript differs from unoptimized baseline:\n%s\n---\n%s",
						arm.workers, arm.delta, trans, baseTrans)
				}
				if table != baseTable {
					t.Errorf("workers=%d delta=%v: optimized final table differs from unoptimized baseline",
						arm.workers, arm.delta)
				}
			}
		})
	}
}

// TestOptimizerIdentityOnTasks: on every task program, as written and
// carrying every constraint a fully answered session adds, no rule has
// anything to do — the optimizer hands back the root it was given. That is
// why no transcript, table or benchmark counter of a task session can
// depend on the optimizer.
func TestOptimizerIdentityOnTasks(t *testing.T) {
	for _, task := range append(corpus.Tasks(), corpus.DBLifeTasks()...) {
		task := task
		t.Run(task.ID, func(t *testing.T) {
			t.Parallel()
			env := task.Env(task.Generate(24, 1))
			// A window no session reaches: every question gets asked.
			sess := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(),
				assistant.Config{Strategy: assistant.Sequential{}, Workers: 1, ConvergenceWindow: 50})
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			written, refined := alog.MustParse(task.Program), sess.Program()
			if refined.String() == written.String() {
				t.Fatal("the session added no constraint")
			}
			for name, prog := range map[string]*alog.Program{"as written": written, "refined": refined} {
				plan, err := engine.Compile(prog, env)
				if err != nil {
					t.Fatal(err)
				}
				opt := engine.OptimizePlan(plan, env, engine.OptOptions{})
				if opt.Root != plan.Root || len(opt.Opt.Fired) != 0 {
					t.Errorf("%s: the optimizer rewrote the plan: %+v\n%s", name, opt.Opt.Fired, opt)
				}
			}
		})
	}
}

// TestOptimizerSessionFaultDifferential reruns the chaos-session
// determinism check with the optimizer enabled: under injected pfunc
// faults with quarantine, the optimized session must match the
// unoptimized faulted session byte-for-byte — surviving results are
// those of the corpus minus the quarantined documents regardless of
// plan shape. (The quarantine set itself may only shrink under
// optimization, because fused joins probe fewer pairs; on the tasks as
// written no rewrite fires, so here it must be unchanged too.)
func TestOptimizerSessionFaultDifferential(t *testing.T) {
	const records = 40
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(records, 1)
	prog := alog.MustParse(task.Program)
	inj := fault.New(42, fault.Rule{Site: "pfunc", Mode: fault.ModeError, Num: 1, Den: 8})

	run := func(workers int, delta, optimize bool) *assistant.Result {
		env := task.Env(c)
		env.FaultHook = inj.Hook()
		cfg := optSessionConfig(workers, delta, optimize)
		cfg.QuarantineFaults = true
		res, err := assistant.NewSession(env, prog, task.Oracle(), cfg).Run()
		if err != nil {
			t.Fatalf("workers=%d delta=%v optimize=%v: %v", workers, delta, optimize, err)
		}
		if res.Degraded == nil || len(res.Degraded.Quarantined) == 0 {
			t.Fatalf("workers=%d delta=%v optimize=%v: no quarantine", workers, delta, optimize)
		}
		return res
	}

	base := run(1, true, false)
	baseQ := base.Degraded.QuarantinedDocs()
	for _, arm := range []struct {
		workers int
		delta   bool
	}{{1, true}, {8, true}, {1, false}, {8, false}} {
		res := run(arm.workers, arm.delta, true)
		if res.Transcript() != base.Transcript() {
			t.Errorf("workers=%d delta=%v: faulted optimized transcript differs", arm.workers, arm.delta)
		}
		if res.Final.String() != base.Final.String() {
			t.Errorf("workers=%d delta=%v: faulted optimized final table differs", arm.workers, arm.delta)
		}
		q := res.Degraded.QuarantinedDocs()
		baseSet := map[string]bool{}
		for _, id := range baseQ {
			baseSet[id] = true
		}
		for _, id := range q {
			if !baseSet[id] {
				t.Errorf("workers=%d delta=%v: optimized run quarantined %s, absent from the unoptimized quarantine %v",
					arm.workers, arm.delta, id, baseQ)
			}
		}
	}
}

// TestSessionSweepT8T9 runs whole T8 (comparisons only, no cell shared)
// and T9 (comparison over a similarity join's output, every cell shared)
// sessions across Workers 1/8 × delta × optimizer × indexed/live:
// transcript and final table are the same everywhere, and the
// deterministic counters — FuncCalls and CmpOperandsParsed among them —
// are the same wherever delta and optimizer settings are.
func TestSessionSweepT8T9(t *testing.T) {
	if testing.Short() {
		t.Skip("32 whole sessions; skipped in -short")
	}
	for _, id := range []string{"T8", "T9"} {
		task, err := corpus.TaskByID(id)
		if err != nil {
			t.Fatal(err)
		}
		c := task.Generate(24, 2)
		var all []*text.Document
		for _, name := range task.Tables {
			all = append(all, c.DocsOf(name)...)
		}
		outputs := map[string]bool{}
		type group struct{ delta, optimize bool }
		counters := map[group][8]int64{}
		for _, indexed := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				for _, delta := range []bool{false, true} {
					for _, optimize := range []bool{false, true} {
						env := task.Env(c)
						if indexed {
							ms := store.NewMemStore(all)
							env.DocIndex, env.Postings = ms, ms
						}
						res, err := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.OracleConfig(assistant.Config{
							Strategy: assistant.Simulation{}, SubsetSeed: 2, Workers: workers,
						}, delta, optimize)).Run()
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s indexed=%t workers=%d delta=%t opt=%t", id, indexed, workers, delta, optimize)
						outputs[res.Transcript()+"\x00"+res.Final.String()] = true
						if len(outputs) != 1 {
							t.Fatalf("%s: transcript or table differs from the first configuration's", where)
						}
						s := res.Stats
						got := [8]int64{s.TuplesBuilt, s.FuncCalls, s.VerifyCalls, s.RefineCalls,
							s.LimitFallbacks, s.TuplesRecomputed, s.SimValuePairsVerified, s.CmpOperandsParsed}
						if prev, ok := counters[group{delta, optimize}]; ok && prev != got {
							t.Fatalf("%s: counters %v, earlier configurations %v", where, got, prev)
						}
						counters[group{delta, optimize}] = got
						if s.CmpOperandsParsed == 0 {
							t.Fatalf("%s: no operand parsed", where)
						}
					}
				}
			}
		}
	}
}

// TestOperandsParsedOncePerSession: a comparison operand is parsed once per
// document span for the life of the session, not once per cell per node
// evaluation — whole T8 and T9 sessions stay under a bound a few times their
// number of distinct values (550,688 and 19,271 operands before the
// documents kept their records), with the same count at Workers 1, 2 and 8
// and with the optimizer arm on or off.
func TestOperandsParsedOncePerSession(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve whole sessions at benchmark size; skipped in -short")
	}
	for _, tc := range []struct {
		id             string
		records, bound int
	}{{"T8", 2000, 30000}, {"T9", 400, 8500}} {
		task, err := corpus.TaskByID(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		c := task.Generate(tc.records, 1)
		var first int64
		for _, workers := range []int{1, 2, 8} {
			for _, optimize := range []bool{true, false} {
				res, err := assistant.NewSession(task.Env(c), alog.MustParse(task.Program), task.Oracle(), assistant.OracleConfig(assistant.Config{
					Strategy: assistant.Simulation{}, SubsetSeed: 1, Workers: workers,
				}, true, optimize)).Run()
				if err != nil {
					t.Fatal(err)
				}
				got := res.Stats.CmpOperandsParsed
				if first == 0 {
					first = got
					t.Logf("%s at %d records: %d operands parsed", tc.id, tc.records, got)
				}
				if got != first || got == 0 || got > int64(tc.bound) {
					t.Errorf("%s workers=%d opt=%t: %d operands parsed, the first session %d, bound %d", tc.id, workers, optimize, got, first, tc.bound)
				}
			}
		}
	}
}
