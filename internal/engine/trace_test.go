package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"iflex/internal/alog"
)

// TestExplainFreshContext runs the Figure 2 plan with tracing on from the
// start: every operator line must show real evaluation data (miss status,
// row counts, a worker id) plus the signature prefix.
func TestExplainFreshContext(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.StartTrace()
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := Explain(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scan housePages", "scan schoolPages", "rows", "cache=miss", "w0", "sig=", "ψ[",
		"feature memo:", "stat merges:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cache=hit ") {
		t.Errorf("fresh traced run should have no hit-only operators:\n%s", out)
	}
}

// TestExplainWarmContext executes first and enables tracing only inside
// Explain — the cmd/iflex -explain=false-then-inspect path. Every node is
// already cached, so the tree must render hit status with no timings.
func TestExplainWarmContext(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Tracing() {
		t.Fatal("tracing should be off by default")
	}
	out, err := Explain(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !ctx.Tracing() {
		t.Error("Explain should have enabled tracing")
	}
	if !strings.Contains(out, "cache=hit") {
		t.Errorf("warm Explain should show cache hits:\n%s", out)
	}
	if strings.Contains(out, "cache=miss") {
		t.Errorf("warm Explain re-evaluated a cached operator:\n%s", out)
	}
}

// traceTotals runs the Figure 2 plan at the given worker count and
// returns the deterministic per-operator aggregates plus the
// deterministic subset of the context stats.
func traceTotals(t *testing.T, workers int) ([]OpStats, Stats) {
	t.Helper()
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.Workers = workers
	ctx.StartTrace()
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := SumAssignments(ctx, plan.Root); err != nil {
		t.Fatal(err)
	}
	return ctx.TraceOps(), ctx.Stats
}

// TestTraceTotalsDeterministic is the observability side of the engine's
// determinism guarantee: per-operator trace aggregates (and the
// deterministic stats counters) must be identical for Workers=1 and
// Workers=8. Wall time, worker ids, and the hit/wait split are the only
// fields allowed to differ.
func TestTraceTotalsDeterministic(t *testing.T) {
	serialOps, serialStats := traceTotals(t, 1)
	parOps, parStats := traceTotals(t, 8)
	if len(serialOps) != len(parOps) {
		t.Fatalf("operator counts differ: serial %d, parallel %d", len(serialOps), len(parOps))
	}
	for i, s := range serialOps {
		p := parOps[i]
		if s.Key != p.Key {
			t.Fatalf("operator %d: key %q vs %q", i, s.Key, p.Key)
		}
		if s.Evals != p.Evals || s.Tuples != p.Tuples || s.Expanded != p.Expanded ||
			s.Assignments != p.Assignments || s.Fallbacks != p.Fallbacks ||
			s.SimTuplePairs != p.SimTuplePairs || s.SimValuePairsProbed != p.SimValuePairsProbed ||
			s.SimValuePairsVerified != p.SimValuePairsVerified ||
			s.CmpOperandsParsed != p.CmpOperandsParsed {
			t.Errorf("operator %s diverges:\nserial   %+v\nparallel %+v", s.Key, s, p)
		}
		// The hit/wait split depends on timing, but the total number of
		// cache-served requests does not.
		if s.Hits+s.Waits != p.Hits+p.Waits {
			t.Errorf("operator %s: cache-served count %d vs %d", s.Key, s.Hits+s.Waits, p.Hits+p.Waits)
		}
	}
	det := func(s Stats) [12]int64 {
		return [12]int64{s.NodesEvaluated, s.CacheHits, s.TuplesBuilt, s.ProcCalls,
			s.FuncCalls, s.VerifyCalls, s.RefineCalls, s.LimitFallbacks,
			s.SimTuplePairs, s.SimValuePairsProbed, s.SimValuePairsVerified, s.CmpOperandsParsed}
	}
	if det(serialStats) != det(parStats) {
		t.Errorf("deterministic stats diverge:\nserial   %+v\nparallel %+v", det(serialStats), det(parStats))
	}
	// The per-operator funnel and operand count add up to the context-wide
	// ones, and the traced plan (figure 2's approxMatch join and its price
	// and area comparisons) does exercise both.
	var pairs, probed, verified, parsed int64
	for _, o := range serialOps {
		pairs, probed, verified = pairs+o.SimTuplePairs, probed+o.SimValuePairsProbed, verified+o.SimValuePairsVerified
		parsed += o.CmpOperandsParsed
	}
	if parsed == 0 || parsed != serialStats.CmpOperandsParsed {
		t.Errorf("per-operator operands parsed %d do not reconcile with stats %d", parsed, serialStats.CmpOperandsParsed)
	}
	if pairs == 0 || pairs != serialStats.SimTuplePairs || probed != serialStats.SimValuePairsProbed || verified != serialStats.SimValuePairsVerified {
		t.Errorf("per-operator funnel %d/%d/%d does not reconcile with stats %d/%d/%d", pairs, probed, verified,
			serialStats.SimTuplePairs, serialStats.SimValuePairsProbed, serialStats.SimValuePairsVerified)
	}
}

// TestConcurrentExplainAndEval hammers a shared traced context with
// simultaneous Explain and Execute calls — run under -race. Explain must
// stay coherent (no error, non-empty output) while evaluation proceeds.
func TestConcurrentExplainAndEval(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.StartTrace()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				if (g+r)%2 == 0 {
					if _, err := plan.Execute(ctx); err != nil {
						errs <- err
						return
					}
					continue
				}
				out, err := Explain(ctx, plan.Root)
				if err != nil {
					errs <- err
					return
				}
				if out == "" {
					errs <- fmt.Errorf("goroutine %d: empty Explain output", g)
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
}

// benchSubset builds a subset filter with n entries.
func benchSubset(n int) map[string]bool {
	f := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		f[fmt.Sprintf("doc-%04d", i)] = true
	}
	return f
}

// TestModeInternedByContents: a mode is its marker's contents, whichever
// map object named the subset; SetDocFilter(nil) restores the full mode;
// quarantine moves the mode and a release of every barred page moves it
// back; and the mode switched away from is remembered only when the
// switch changed the mode.
func TestModeInternedByContents(t *testing.T) {
	ctx := NewContext(NewEnv())
	if ctx.mode.Load() != fullMode || ctx.prevMode != 0 {
		t.Fatalf("fresh context in mode %d after %d", ctx.mode.Load(), ctx.prevMode)
	}
	ctx.SetDocFilter(benchSubset(5))
	five := ctx.mode.Load()
	if five == fullMode || ctx.prevMode != fullMode {
		t.Fatalf("subset mode %d after %d", five, ctx.prevMode)
	}
	withFalse := benchSubset(5)
	withFalse["doc-9999"] = false
	ctx.SetDocFilter(withFalse)
	if ctx.mode.Load() != five || ctx.prevMode != fullMode {
		t.Fatalf("an equal subset in another map is mode %d after %d, want %d after %d", ctx.mode.Load(), ctx.prevMode, five, fullMode)
	}
	ctx.SetDocFilter(benchSubset(2))
	if two := ctx.mode.Load(); two == five || two == fullMode || ctx.prevMode != five {
		t.Fatalf("a different subset is mode %d after %d", two, ctx.prevMode)
	}
	ctx.SetDocFilter(nil)
	scan := newScanNode(ctx.Env, "pages", []string{"x"})
	if got := ctx.cacheKey(ctx.mode.Load(), scan); ctx.mode.Load() != fullMode || got != "full|scan(pages->x)" {
		t.Errorf("after SetDocFilter(nil): mode %d, key %q", ctx.mode.Load(), got)
	}
	ctx.quarantineDocs("pfunc", "boom", []string{"doc-0001"})
	barred := ctx.mode.Load()
	if got := ctx.cacheKey(barred, scan); barred == fullMode || got != "full|quarantine:doc-0001|scan(pages->x)" {
		t.Errorf("quarantined: mode %d, key %q", barred, got)
	}
	ctx.releaseQuarantined(map[string]bool{"doc-0001": true})
	if ctx.mode.Load() != fullMode {
		t.Errorf("after release: mode %d", ctx.mode.Load())
	}
	ctx.SetDocFilter(benchSubset(5))
	if ctx.mode.Load() != five {
		t.Errorf("the subset came back as mode %d, was %d", ctx.mode.Load(), five)
	}
}

// TestExplainRun: a run is one line of the plan and of the explain tree,
// listing its stages with the rows that went in; an extended run evaluated
// behind its predecessor says how many stages it resumed behind; and
// ConstraintStages — what the footer totals — counts one computed stage per
// tuple and constraint, the same serially and on eight workers.
func TestExplainRun(t *testing.T) {
	p := alog.AttrRef{Pred: "extractHouses", Var: "p"}
	const run3 = `σ[numeric(p)="yes" ∧ bold-font(p)="no" ∧ max-tokens(p)="1"]`
	var stages []int64
	for _, workers := range []int{1, 8} {
		env := chaosEnv(40, 4, nil)
		ctx := NewContext(env)
		ctx.Workers = workers
		ctx.EnableDelta()
		base, err := Compile(alog.MustParse(runCornerSrc), env)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(base.String(), run3); got != 1 || strings.Count(base.String(), "σ[") != 3 {
			t.Fatalf("plan shows the three-stage run %d times among %d selections:\n%s", got, strings.Count(base.String(), "σ["), base)
		}
		out, err := base.Explain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, run3) || !strings.Contains(out, " stages=3 in=40") || strings.Contains(out, "resumed=") {
			t.Fatalf("explain of the first evaluation:\n%s", out)
		}
		// 40 pages × (3 stages on p + 1 on a), nothing dropped on the way.
		if !strings.Contains(out, "constraints: 160 stages computed; 2 runs traced (4 stages), 0 resumed") {
			t.Fatalf("footer of the first evaluation:\n%s", out)
		}
		prog := alog.MustParse(runCornerSrc)
		if err := prog.AddConstraint(p, "preceded-by", "Price:"); err != nil {
			t.Fatal(err)
		}
		next, err := Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		ctx.RegisterDelta(base.Root, next.Root)
		if out, err = next.Explain(ctx); err != nil {
			t.Fatal(err)
		}
		// The run on a sits above the extended one: re-evaluated, behind all
		// of its one stage. The trace still holds the base plan's two runs.
		if !strings.Contains(out, " stages=4 in=40 resumed=3") || !strings.Contains(out, " stages=1 in=40 resumed=1") ||
			!strings.Contains(out, "4 runs traced (9 stages), 2 resumed (behind 4 stages)") {
			t.Fatalf("explain of the extended run:\n%s", out)
		}
		stages = append(stages, ctx.Stats.ConstraintStages)
	}
	// The extension computed its one new stage per page.
	if stages[0] != 200 || stages[1] != stages[0] {
		t.Fatalf("ConstraintStages %v at workers 1 and 8, want 200 both", stages)
	}
}
