package engine_test

import (
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
)

// TestTraceBoundedByCache: the trace lives on the cache entries, so a
// session under a CacheBudget that evicts (T9 at 40 records in 64 KB, the
// TestCacheBudgetEviction shape) ends with no more traced operators than
// its cache holds entries.
func TestTraceBoundedByCache(t *testing.T) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	var ctx *engine.Context
	restore := engine.CaptureContextsForTest(func(c *engine.Context) { ctx = c })
	s := assistant.NewSession(task.Env(task.Generate(40, 1)), alog.MustParse(task.Program), task.Oracle(), assistant.Config{
		Strategy: assistant.Simulation{}, SubsetSeed: 1, Workers: 1, CacheBudget: 64 << 10,
	})
	restore()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheEvictions == 0 {
		t.Fatal("the budget evicted nothing")
	}
	ops := ctx.TraceOps()
	_, entries := ctx.CacheInfo()
	if len(ops) == 0 || len(ops) > entries {
		t.Errorf("%d operators traced, %d cache entries", len(ops), entries)
	}
}
