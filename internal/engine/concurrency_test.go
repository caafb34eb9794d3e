package engine

import (
	"fmt"
	"sync"
	"testing"

	"iflex/internal/alog"
)

// TestSharedContextStress evaluates one shared Context from 16 goroutines
// at once — the access pattern of the parallel simulation strategy, where
// every simulated program variant shares the session's reuse cache. Each
// goroutine alternates between the base Figure 2 plan and a refined
// variant, so the single-flight cache sees both duplicate signatures
// (waiters) and fresh ones (evaluators). Run under -race.
func TestSharedContextStress(t *testing.T) {
	env := figure2Env()
	base := alog.MustParse(figure2Src)
	refined := base.Clone()
	if err := refined.AddConstraint(alog.AttrRef{Pred: "extractSchools", Var: "s"}, "max-tokens", "3"); err != nil {
		t.Fatal(err)
	}
	basePlan, err := Compile(base, env)
	if err != nil {
		t.Fatal(err)
	}
	refinedPlan, err := Compile(refined, env)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference results against which every concurrent run is
	// compared.
	wantBase, err := basePlan.Execute(NewContext(env))
	if err != nil {
		t.Fatal(err)
	}
	wantRefined, err := refinedPlan.Execute(NewContext(env))
	if err != nil {
		t.Fatal(err)
	}

	ctx := NewContext(env)
	const goroutines = 16
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				plan, want, name := basePlan, wantBase, "base"
				if (g+r)%2 == 1 {
					plan, want, name = refinedPlan, wantRefined, "refined"
				}
				got, err := plan.Execute(ctx)
				if err != nil {
					errs <- err
					return
				}
				if got.Canonical() != want.Canonical() {
					errs <- fmt.Errorf("goroutine %d round %d: %s plan diverged:\n got %s\nwant %s",
						g, r, name, got.Canonical(), want.Canonical())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits := ctx.Stats.CacheHits; hits == 0 {
		t.Error("shared context recorded no cache hits across 64 concurrent executions")
	}
}

// TestParallelChunksDeterministicError checks that a parallel run reports
// the error a serial left-to-right run would hit first, regardless of
// which chunk fails fastest.
func TestParallelChunksDeterministicError(t *testing.T) {
	ctx := NewContext(NewEnv())
	ctx.Workers = 8
	for trial := 0; trial < 50; trial++ {
		err := ctx.parallelChunksSized(100, 1, func(start, end int) error {
			// Every index from 10 on fails; index 10 falls in chunk 0, so
			// the lowest-chunk-wins rule must always report chunk 0's
			// error even when later chunks fail first in wall-clock time.
			for i := start; i < end; i++ {
				if i >= 10 {
					return fmt.Errorf("fail in chunk starting at %d", start)
				}
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if got := err.Error(); got != "fail in chunk starting at 0" {
			t.Fatalf("trial %d: got error from a later chunk: %q", trial, got)
		}
	}
}
