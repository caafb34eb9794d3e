package engine

import (
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"iflex/internal/alog"
)

// TestExplainFreshContext runs the Figure 2 plan, then explains it: every
// operator line must show real evaluation data (miss status, row counts,
// timings) plus the signature prefix.
func TestExplainFreshContext(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := Explain(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scan housePages", "scan schoolPages", "rows", " self ", "cache=miss", "sig=", "ψ[",
		"feature memo:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cache=hit ") {
		t.Errorf("fresh run should have no hit-only operators:\n%s", out)
	}
}

// TestSelfTimeExcludesInputs: a node's Wall covers the evaluation of its
// inputs, its Self the operator alone — a renaming projection over an input
// that takes 30 ms reads at least that much Wall and a fraction of it Self.
func TestSelfTimeExcludesInputs(t *testing.T) {
	env := NewEnv()
	slow := &hookNode{ident: ident{id: newNodeID(), head: "slow"}, fn: func() { time.Sleep(30 * time.Millisecond) }}
	p := newProjectNode(env, slow, []string{"x"}, []string{"y"})
	ctx := NewContext(env)
	if _, err := Eval(ctx, p); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, o := range ctx.TraceOps() {
		if o.Self > o.Wall {
			t.Errorf("%s: self %v above wall %v", o.Signature, o.Self, o.Wall)
		}
		if o.Signature == p.Signature() {
			found = true
			if o.Wall < 30*time.Millisecond || o.Self > o.Wall/2 {
				t.Errorf("projection: wall %v, self %v; want wall ≥ 30ms, self the operator alone", o.Wall, o.Self)
			}
		}
	}
	if !found {
		t.Fatal("the projection left no trace record")
	}
}

// TestExplainQuarantineFooter: the footer lists the first eight
// quarantined documents by ID, whatever order they were barred in, and
// then "...".
func TestExplainQuarantineFooter(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	for i := 10; i >= 1; i-- {
		ctx.quarantineDocs("pfunc", "boom", docSet{fmt.Sprintf("doc-%02d", i): true})
	}
	out, err := Explain(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	var shown []string
	for i := 1; i <= 8; i++ {
		shown = append(shown, fmt.Sprintf("doc-%02d (pfunc: boom)", i))
	}
	want := "quarantine: 10 docs, 10 events, 0 retries, 0 restarts: " + strings.Join(shown, "; ") + "; ...\n"
	if !strings.Contains(out, want) {
		t.Errorf("Explain footer lacks %q:\n%s", want, out)
	}
}

// TestExplainWarmContext: Explain on a context that already executed the
// plan evaluates nothing, and every line renders the evaluation its cache
// entry holds — a miss with its wall and self time.
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
	evaluated := ctx.Stats.NodesEvaluated
	out, err := Explain(ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.NodesEvaluated != evaluated {
		t.Errorf("Explain of a warm context evaluated %d nodes", ctx.Stats.NodesEvaluated-evaluated)
	}
	lines := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, " sig=") {
			continue
		}
		lines++
		if !strings.Contains(line, "cache=miss") || strings.Contains(line, " - self ") {
			t.Errorf("line without its evaluation: %s", line)
		}
	}
	if lines != CountNodes(plan.Root) {
		t.Errorf("%d operator lines for %d nodes:\n%s", lines, CountNodes(plan.Root), out)
	}
}

// traceTotals runs the Figure 2 plan at the given worker count and
// returns the deterministic per-operator aggregates plus the
// deterministic subset of the context stats.
func traceTotals(t *testing.T, workers int) ([]TracedOp, Stats) {
	t.Helper()
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.Workers = workers
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := SumAssignments(ctx, plan.Root); err != nil {
		t.Fatal(err)
	}
	return ctx.TraceOps(), ctx.Stats
}

// statCounts maps each counter field of v, a Stats or a Work, whose stat
// kind keep accepts to its value.
func statCounts(v any, keep func(kind string) bool) map[string]int64 {
	out := map[string]int64{}
	rv := reflect.ValueOf(v)
	for _, f := range reflect.VisibleFields(rv.Type()) {
		if !f.Anonymous && keep(f.Tag.Get("stat")) {
			out[f.Name] = rv.FieldByIndex(f.Index).Int()
		}
	}
	return out
}

func isDet(kind string) bool { return kind == "det" }

// TestTraceTotalsDeterministic is the observability side of the engine's
// determinism guarantee: per-operator trace aggregates (and every det
// stats counter) must be identical for Workers=1 and Workers=8. Wall and
// self time and the sched counters are the only fields allowed to differ.
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
		if s.Tuples != p.Tuples || s.Expanded != p.Expanded || s.Assignments != p.Assignments ||
			s.Stages != p.Stages || s.ResumedFrom != p.ResumedFrom || !maps.Equal(statCounts(s.Work, isDet), statCounts(p.Work, isDet)) {
			t.Errorf("operator %s diverges:\nserial   %+v\nparallel %+v", s.Key, s, p)
		}
		// Whether a request hit or waited depends on timing, but how many
		// the entry served does not.
		if s.Served != p.Served {
			t.Errorf("operator %s: cache-served count %d vs %d", s.Key, s.Served, p.Served)
		}
	}
	if s, p := statCounts(serialStats, isDet), statCounts(parStats, isDet); !maps.Equal(s, p) {
		t.Errorf("deterministic stats diverge:\nserial   %v\nparallel %v", s, p)
	}
	// Every Work counter of the operators adds up to the context-wide one,
	// and the traced plan (figure 2's approxMatch join and its price and
	// area comparisons) does exercise the funnel and the operand parse.
	all := func(string) bool { return true }
	sum := map[string]int64{}
	for _, o := range serialOps {
		for name, n := range statCounts(o.Work, all) {
			sum[name] += n
		}
	}
	if want := statCounts(serialStats.Work, all); !maps.Equal(sum, want) {
		t.Errorf("per-operator work %v does not reconcile with stats %v", sum, want)
	}
	if sum["SimTuplePairs"] == 0 || sum["SimValuePairsVerified"] == 0 || sum["CmpOperandsParsed"] == 0 {
		t.Errorf("figure 2 left the funnel or the operand parse idle: %v", sum)
	}
}

// TestStatsCounterTable pins the counter table and the stats stream's wire
// contract: each counter of Stats (those of its Work included) has one JSON
// name and a known kind, and a snapshot marshals to exactly the keys the
// stream has always carried.
func TestStatsCounterTable(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	names := map[string]string{}
	for _, f := range reflect.VisibleFields(v.Type()) {
		if f.Anonymous {
			continue
		}
		switch kind := f.Tag.Get("stat"); kind {
		case "det", "sched", "gauge", "ns":
		default:
			t.Errorf("%s: stat kind %q", f.Name, kind)
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			t.Errorf("%s has no json name", f.Name)
		} else if prev, dup := names[name]; dup && name != "-" {
			t.Errorf("%s and %s are both %q", prev, f.Name, name)
		}
		names[name] = f.Name
		// Nothing is left zero, so no omitempty key drops out below.
		if fv := v.FieldByIndex(f.Index); fv.Kind() == reflect.Int64 {
			fv.SetInt(1)
		} else {
			fv.Index(0).SetInt(1)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Work{})) {
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("Work.%s is a %s: Work.add merges int64 counters only", f.Name, f.Type)
		}
	}
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range wire {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"block_idx_evictions", "block_idx_postings", "cache_bytes", "cache_evictions", "cache_hit_rate",
		"cache_hits", "cmp_operands_parsed", "constraint_stages", "corpus_deltas", "corpus_prior_hits",
		"deadline_cuts", "delta_evals", "delta_reuse_rate", "doc_record_bytes", "eval_restarts",
		"feature_memo_hit_rate", "feature_memo_hits", "feature_memo_misses", "full_evals", "func_calls",
		"index_token_hits", "limit_fallbacks", "nodes_evaluated", "op_time_seconds", "pool_max_extra",
		"pool_slots_denied", "pool_slots_granted", "pool_utilization", "proc_calls", "quarantine_events",
		"quarantine_retries", "quarantined_docs", "refine_calls", "sim_tuple_pairs", "sim_value_pairs_probed",
		"sim_value_pairs_verified", "tables_adopted", "tuples_built",
		"tuples_recomputed", "tuples_reused", "verify_calls",
	}
	if !slices.Equal(got, want) {
		t.Errorf("snapshot keys\n%v\nwant the %d of the stats stream\n%v", got, len(want), want)
	}
}

// TestConcurrentExplainAndEval hammers a shared context with
// simultaneous Explain and Execute calls — run under -race. Explain must
// stay coherent (no error, non-empty output) while evaluation proceeds.
func TestConcurrentExplainAndEval(t *testing.T) {
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
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
	ctx.quarantineDocs("pfunc", "boom", docSet{"doc-0001": true})
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

// warmFigure2 returns the Figure 2 plan executed once on a fresh context
// and a pass that walks it fully cached: Execute answers from the root's
// entry, SumAssignments looks every node up.
func warmFigure2(t *testing.T) (*Context, *Plan, func()) {
	t.Helper()
	env := figure2Env()
	plan, err := Compile(alog.MustParse(figure2Src), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	pass := func() {
		if _, err := plan.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := SumAssignments(ctx, plan.Root); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	return ctx, plan, pass
}

// warmPassAllocs is what a warm pass allocates: SumAssignments' seen set
// and walk, nothing per hit.
const warmPassAllocs = 8

// TestTraceWarmAllocsNothing: counting a hit on its cache entry allocates
// nothing — a hit renders no key and keeps no record of itself.
func TestTraceWarmAllocsNothing(t *testing.T) {
	_, _, pass := warmFigure2(t)
	if got := testing.AllocsPerRun(20, pass); got > warmPassAllocs {
		t.Errorf("a warm pass allocates %v times, want at most %d", got, warmPassAllocs)
	}
}

// TestTraceHitsAggregate: repeating warm passes adds no operator to the
// trace; each Execute adds one hit to the root and each SumAssignments one
// to every operator.
func TestTraceHitsAggregate(t *testing.T) {
	ctx, plan, _ := warmFigure2(t)
	before := ctx.TraceOps()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := plan.Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := SumAssignments(ctx, plan.Root); err != nil {
			t.Fatal(err)
		}
	}
	after := ctx.TraceOps()
	if len(after) != len(before) {
		t.Fatalf("%d operators traced, %d before the warm passes", len(after), len(before))
	}
	root := 0
	for i, o := range after {
		want := before[i].Served + n
		if o.Signature == plan.Root.Signature() {
			want += n
			root++
		}
		if o.Key != before[i].Key || o.Served != want || o.Wall != before[i].Wall {
			t.Errorf("%s: %d hits, wall %v; want %d and %v", o.Key, o.Served, o.Wall, want, before[i].Wall)
		}
	}
	if root != 1 {
		t.Errorf("the root is traced %d times", root)
	}
}
