package assistant_test

import (
	"fmt"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/store"
	"iflex/internal/text"
)

// TestSessionSweepT8T9 runs whole T8 (comparisons only, no cell shared)
// and T9 (comparison over a similarity join's output, every cell shared)
// sessions across Workers 1/8 × delta × indexed/live: transcript and final
// table are the same everywhere, and the deterministic counters —
// FuncCalls and CmpOperandsParsed among them — are the same wherever the
// delta setting is.
func TestSessionSweepT8T9(t *testing.T) {
	if testing.Short() {
		t.Skip("16 whole sessions; skipped in -short")
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
		counters := map[bool][8]int64{}
		for _, indexed := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				for _, delta := range []bool{false, true} {
					env := task.Env(c)
					if indexed {
						ms := store.NewMemStore(all)
						env.DocIndex, env.Postings = ms, ms
					}
					res, err := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.OracleConfig(assistant.Config{
						Strategy: assistant.Simulation{}, SubsetSeed: 2, Workers: workers,
					}, delta)).Run()
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s indexed=%t workers=%d delta=%t", id, indexed, workers, delta)
					outputs[res.Transcript()+"\x00"+res.Final.String()] = true
					if len(outputs) != 1 {
						t.Fatalf("%s: transcript or table differs from the first configuration's", where)
					}
					s := res.Stats
					got := [8]int64{s.TuplesBuilt, s.FuncCalls, s.VerifyCalls, s.RefineCalls,
						s.LimitFallbacks, s.TuplesRecomputed, s.SimValuePairsVerified, s.CmpOperandsParsed}
					if prev, ok := counters[delta]; ok && prev != got {
						t.Fatalf("%s: counters %v, earlier configurations %v", where, got, prev)
					}
					counters[delta] = got
					if s.CmpOperandsParsed == 0 {
						t.Fatalf("%s: no operand parsed", where)
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
// documents kept their records), with the same count at Workers 1, 2 and 8.
func TestOperandsParsedOncePerSession(t *testing.T) {
	if testing.Short() {
		t.Skip("six whole sessions at benchmark size; skipped in -short")
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
			res, err := assistant.NewSession(task.Env(c), alog.MustParse(task.Program), task.Oracle(), assistant.Config{
				Strategy: assistant.Simulation{}, SubsetSeed: 1, Workers: workers,
			}).Run()
			if err != nil {
				t.Fatal(err)
			}
			got := res.Stats.CmpOperandsParsed
			if first == 0 {
				first = got
				t.Logf("%s at %d records: %d operands parsed", tc.id, tc.records, got)
			}
			if got != first || got == 0 || got > int64(tc.bound) {
				t.Errorf("%s workers=%d: %d operands parsed, the first session %d, bound %d", tc.id, workers, got, first, tc.bound)
			}
		}
	}
}
