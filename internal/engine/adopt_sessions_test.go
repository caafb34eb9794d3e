package engine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/fault"
	"iflex/internal/store"
	"iflex/internal/text"
)

// adoptUnrunMoves are the counters adoption before evaluation may move: the
// work of the loops it does not run, and its own count. Every other
// deterministic counter must not notice it.
var adoptUnrunMoves = map[string]bool{
	"TuplesReused": true, "TuplesRecomputed": true, "ConstraintStages": true, "FuncCalls": true, "ProcCalls": true,
	"AdoptedUnrun": true,
}

// detCounters renders every stat:"det" counter of s outside
// adoptUnrunMoves.
func detCounters(s engine.Stats) string {
	var b strings.Builder
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := range v.NumField() {
			f := v.Type().Field(i)
			switch {
			case f.Anonymous:
				walk(v.Field(i))
			case f.Tag.Get("stat") == "det" && !adoptUnrunMoves[f.Name]:
				fmt.Fprintf(&b, "%s=%d ", f.Name, v.Field(i).Int())
			}
		}
	}
	walk(reflect.ValueOf(s))
	return b.String()
}

// runSession runs task's session over env to the end, with delta
// evaluation switched off when delta is false.
func runSession(env *engine.Env, task *corpus.Task, cfg assistant.Config, delta bool) (*assistant.Result, error) {
	var ctx *engine.Context
	restore := engine.CaptureContextsForTest(func(c *engine.Context) { ctx = c })
	s := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), cfg)
	restore()
	if !delta {
		engine.DisableDeltaForTest(ctx)
	}
	return s.Run()
}

// TestAdoptUnrunSessionsMatch runs the sessions of TestSessionSweepT8T9,
// TestSessionDeltaMatchesFullSession and TestChaosSessionDeterministic
// (internal/assistant) with adoption before evaluation on and off: the
// transcripts, final tables, degradation reports and every deterministic
// counter outside adoptUnrunMoves are the same, and with delta evaluation
// on the skip happens.
func TestAdoptUnrunSessionsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("28 whole sessions, each run twice; skipped in -short")
	}
	type session struct {
		name string
		run  func() (*assistant.Result, error)
	}
	var sessions []session
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
		for _, indexed := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				for _, delta := range []bool{false, true} {
					sessions = append(sessions, session{fmt.Sprintf("sweep %s indexed=%t workers=%d delta=%t", id, indexed, workers, delta), func() (*assistant.Result, error) {
						env := task.Env(c)
						if indexed {
							ms := store.NewMemStore(all)
							env.DocIndex, env.Postings = ms, ms
						}
						return runSession(env, task, assistant.Config{Strategy: assistant.Simulation{}, SubsetSeed: 2, Workers: workers}, delta)
					}})
				}
			}
		}
	}
	for _, id := range []string{"T3", "T9"} {
		task, err := corpus.TaskByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			for _, delta := range []bool{false, true} {
				sessions = append(sessions, session{fmt.Sprintf("delta %s workers=%d delta=%t", id, workers, delta), func() (*assistant.Result, error) {
					return runSession(task.Env(task.Generate(20, 1)), task, assistant.Config{Strategy: assistant.Simulation{}, SubsetSeed: 1, Workers: workers}, delta)
				}})
			}
		}
	}
	t9, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	chaos := t9.Generate(40, 1)
	inj := fault.New(42, fault.Rule{Site: "pfunc", Mode: fault.ModeError, Num: 1, Den: 8})
	for _, workers := range []int{1, 8} {
		for _, delta := range []bool{false, true} {
			sessions = append(sessions, session{fmt.Sprintf("chaos T9 workers=%d delta=%t", workers, delta), func() (*assistant.Result, error) {
				env := t9.Env(chaos)
				env.FaultHook = inj.Hook()
				return runSession(env, t9, assistant.Config{
					Strategy: assistant.Sequential{}, MaxIterations: 3, ConvergenceWindow: 100, SubsetSeed: 1, Workers: workers,
				}, delta)
			}})
		}
	}

	render := func(res *assistant.Result) string {
		deg := ""
		if res.Degraded != nil {
			deg = res.Degraded.Summary()
		}
		return res.Transcript() + "\n" + res.Final.String() + "\n" + deg + "\n" + detCounters(res.Stats)
	}
	for _, s := range sessions {
		on, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		restore := engine.NoAdoptUnrunForTest()
		off, err := s.run()
		restore()
		if err != nil {
			t.Fatalf("%s, skip off: %v", s.name, err)
		}
		if got, want := render(on), render(off); got != want {
			t.Errorf("%s: adoption before evaluation changed the session\nwith:\n%s\nwithout:\n%s", s.name, got, want)
		}
		if off.Stats.AdoptedUnrun != 0 {
			t.Errorf("%s: %d tables adopted unrun with the skip off", s.name, off.Stats.AdoptedUnrun)
		}
		if delta := !strings.HasSuffix(s.name, "delta=false"); delta != (on.Stats.AdoptedUnrun > 0) {
			t.Errorf("%s: %d tables adopted unrun", s.name, on.Stats.AdoptedUnrun)
		}
	}
}
