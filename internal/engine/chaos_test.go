package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/fault"
	"iflex/internal/markup"
	"iflex/internal/text"
)

// chaosSchools is the pool of school names the generated corpus draws
// from; a third of the houses name a school that exists in the school
// pages, so the approxMatch join produces real pairs.
var chaosSchools = []string{"Basktall", "Vanhise", "Franklin", "Hoover", "Ossage", "Lincoln"}

// chaosHouseDocs generates n house pages in the Figure 1.b shape with
// varied prices and square footage, deterministically from the index.
func chaosHouseDocs(n int) []*text.Document {
	docs := make([]*text.Document, 0, n)
	for i := 0; i < n; i++ {
		school := chaosSchools[i%len(chaosSchools)]
		src := fmt.Sprintf(`House number %d on a fine street.<br>
%d Maple Ave., Springfield<br>
Sqft: %d<br>
Price: %d<br>
High school: %s High`, i, 100+i, 2000+137*i, 300000+41000*i, school)
		docs = append(docs, markup.MustParse(fmt.Sprintf("h%02d", i), src))
	}
	return docs
}

// chaosSchoolDocs generates m school pages, each listing two bold school
// names from the pool.
func chaosSchoolDocs(m int) []*text.Document {
	docs := make([]*text.Document, 0, m)
	for i := 0; i < m; i++ {
		a := chaosSchools[(2*i)%len(chaosSchools)]
		b := chaosSchools[(2*i+1)%len(chaosSchools)]
		src := fmt.Sprintf(`<title>School listing %d</title>
<ul><li><b>%s</b>, Springfield</li>
<li><b>%s</b>, Shelbyville</li></ul>`, i, a, b)
		docs = append(docs, markup.MustParse(fmt.Sprintf("s%02d", i), src))
	}
	return docs
}

// chaosEnv binds a generated corpus, optionally excluding documents (the
// clean-run comparison rebuilds the env without the quarantined ones).
func chaosEnv(nHouses, nSchools int, exclude map[string]bool) *Env {
	env := NewEnv()
	keep := func(docs []*text.Document) []*text.Document {
		if len(exclude) == 0 {
			return docs
		}
		var out []*text.Document
		for _, d := range docs {
			if !exclude[d.ID()] {
				out = append(out, d)
			}
		}
		return out
	}
	env.AddDocTable("housePages", "x", keep(chaosHouseDocs(nHouses)))
	env.AddDocTable("schoolPages", "y", keep(chaosSchoolDocs(nSchools)))
	env.Procs["firstWord"] = Procedure{Outputs: 1, Fn: func(in text.Span) ([][]text.Span, error) {
		if in.NumTokens() == 0 {
			return nil, nil
		}
		return [][]text.Span{{in.TokenSpan(0, 1)}}, nil
	}}
	return env
}

// chaosProcCrossSrc drives the two operators figure2Src leaves out: a
// procedure (firstWord, bound by chaosEnv) and the plain product, once over
// a shared column (prices and sizes of one page) and once over none (every
// school tag).
const chaosProcCrossSrc = `
prices(x, p) :- housePages(x), from(x, p), numeric(p) = yes, preceded-by(p) = "Price:".
sizes(x, a) :- housePages(x), from(x, a), numeric(a) = yes, preceded-by(a) = "Sqft:".
tags(y, w) :- schoolPages(y), firstWord(y, w).
Q(x, p, a, w) :- prices(x, p), sizes(x, a), tags(y, w), p > 500000.
`

// chaosCounters renders the counters that must not depend on the worker
// count, quarantine and restart counts included.
func chaosCounters(ctx *Context) string {
	st := &ctx.Stats
	return fmt.Sprintf("nodes=%d built=%d proc=%d func=%d verify=%d refine=%d stages=%d fallbacks=%d recomputed=%d events=%d retries=%d restarts=%d",
		st.NodesEvaluated, st.TuplesBuilt, st.ProcCalls, st.FuncCalls, st.VerifyCalls, st.RefineCalls, st.ConstraintStages,
		st.LimitFallbacks, st.TuplesRecomputed, st.QuarantineEvents, st.QuarantineRetries, st.EvalRestarts)
}

// runChaosConfig compiles and executes figure2Src over a chaos env under
// the given configuration, returning the rendered table and the context.
func runChaosConfig(t *testing.T, env *Env, workers int, delta bool) (string, *Context) {
	t.Helper()
	return runChaosProgram(t, figure2Src, env, workers, delta)
}

func runChaosProgram(t *testing.T, src string, env *Env, workers int, delta bool) (string, *Context) {
	t.Helper()
	prog := alog.MustParse(src)
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.Workers = workers
	if delta {
		ctx.EnableDelta()
	}
	tbl, err := plan.Execute(ctx)
	if err != nil {
		t.Fatalf("workers=%d delta=%v: %v", workers, delta, err)
	}
	return tbl.String(), ctx
}

// TestChaosQuarantineDeterministic is the core chaos invariant: with
// deterministic error faults injected at the feature boundary, the
// result table and the quarantined document set are byte-identical
// across worker counts and delta on/off, and the result equals a
// fault-free run over the corpus minus exactly the quarantined
// documents.
func TestChaosQuarantineDeterministic(t *testing.T) {
	for _, leg := range []struct {
		name, src string
		rules     []fault.Rule
	}{
		{"figure2", figure2Src, []fault.Rule{{Site: "feature", Mode: fault.ModeError, Num: 1, Den: 4}}},
		{"proc and cross", chaosProcCrossSrc, []fault.Rule{
			{Site: "feature", Mode: fault.ModeError, Num: 1, Den: 6},
			{Site: "proc", Mode: fault.ModeError, Num: 1, Den: 3}}},
	} {
		t.Run(leg.name, func(t *testing.T) { chaosQuarantineDeterministic(t, leg.src, leg.rules) })
	}
}

func chaosQuarantineDeterministic(t *testing.T, src string, rules []fault.Rule) {
	inj := fault.New(42, rules...)

	type cfg struct {
		workers int
		delta   bool
	}
	configs := []cfg{{1, false}, {8, false}, {1, true}, {8, true}}
	var tables, counters []string
	var quarantines [][]string
	for _, c := range configs {
		env := chaosEnv(18, 6, nil)
		env.FaultHook = inj.Hook()
		tbl, ctx := runChaosProgram(t, src, env, c.workers, c.delta)
		tables = append(tables, tbl)
		counters = append(counters, chaosCounters(ctx))
		quarantines = append(quarantines, ctx.QuarantinedDocs())
		if ctx.Stats.QuarantinedDocs == 0 {
			t.Fatalf("workers=%d delta=%v: no documents quarantined; faults did not fire", c.workers, c.delta)
		}
		if ctx.Stats.EvalRestarts == 0 {
			t.Errorf("workers=%d delta=%v: expected at least one quarantine restart", c.workers, c.delta)
		}
	}
	for i := 1; i < len(configs); i++ {
		if tables[i] != tables[0] {
			t.Errorf("config %+v table differs from config %+v:\n%s\n---\n%s",
				configs[i], configs[0], tables[i], tables[0])
		}
		if strings.Join(quarantines[i], ",") != strings.Join(quarantines[0], ",") {
			t.Errorf("config %+v quarantine %v differs from config %+v quarantine %v",
				configs[i], quarantines[i], configs[0], quarantines[0])
		}
		// A single execution links no plan versions, so delta evaluation has
		// nothing to replay and does the same work. (Only the serial runs
		// compare: with pool slots free, sibling subtrees fault in the same
		// pass instead of one restart apart, so how much a faulting pass
		// evaluated before it was discarded follows the schedule.)
		if configs[i].workers == configs[0].workers && counters[i] != counters[0] {
			t.Errorf("config %+v counters differ from config %+v:\n%s\n%s", configs[i], configs[0], counters[i], counters[0])
		}
	}

	// Every quarantined document must be one the injector targets at one of
	// the faulted sites: single-document attribution at those boundaries.
	faulty := map[string]bool{}
	for _, r := range rules {
		for _, id := range inj.FaultyDocs(r.Site, allChaosIDs(18, 6)) {
			faulty[id] = true
		}
	}
	for _, id := range quarantines[0] {
		if !faulty[id] {
			t.Errorf("doc %s quarantined but the injector never targeted it", id)
		}
	}

	// The faulted result must equal a fault-free run over the corpus
	// minus exactly the quarantined documents.
	exclude := map[string]bool{}
	for _, id := range quarantines[0] {
		exclude[id] = true
	}
	cleanEnv := chaosEnv(18, 6, exclude)
	cleanTbl, cleanCtx := runChaosProgram(t, src, cleanEnv, 1, false)
	if got := cleanCtx.QuarantinedDocs(); len(got) != 0 {
		t.Fatalf("clean run quarantined %v", got)
	}
	if cleanTbl != tables[0] {
		t.Errorf("faulted result differs from clean run over corpus minus quarantined docs:\nfaulted:\n%s\nclean:\n%s",
			tables[0], cleanTbl)
	}
}

func allChaosIDs(nHouses, nSchools int) []string {
	var ids []string
	for _, d := range chaosHouseDocs(nHouses) {
		ids = append(ids, d.ID())
	}
	for _, d := range chaosSchoolDocs(nSchools) {
		ids = append(ids, d.ID())
	}
	return ids
}

// TestChaosNoPoisonedCache re-executes on the same context after
// disabling the injector: every node must come back from the reuse cache
// byte-identical — no entry computed during a faulting pass may have
// been cached.
func TestChaosNoPoisonedCache(t *testing.T) {
	inj := fault.New(7, fault.Rule{Site: "pfunc", Mode: fault.ModeError, Num: 1, Den: 5})
	env := chaosEnv(18, 6, nil)
	env.FaultHook = inj.Hook()
	prog := alog.MustParse(figure2Src)
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.Workers = 4
	first, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.QuarantinedDocs == 0 {
		t.Fatal("no documents quarantined; faults did not fire")
	}

	inj.Disable()
	evalsBefore := ctx.Stats.NodesEvaluated
	second, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second.String() != first.String() {
		t.Errorf("re-execution after disabling faults changed the result:\n%s\n---\n%s", second, first)
	}
	if ctx.Stats.NodesEvaluated != evalsBefore {
		t.Errorf("re-execution evaluated %d nodes fresh; all should be cache hits",
			ctx.Stats.NodesEvaluated-evalsBefore)
	}
}

// TestChaosPanicQuarantine injects panics (never retried) at the
// p-function boundary: the process must survive, the offending documents
// must be quarantined, and the run must complete.
func TestChaosPanicQuarantine(t *testing.T) {
	inj := fault.New(99, fault.Rule{Site: "pfunc", Mode: fault.ModePanic, Num: 1, Den: 6})
	env := chaosEnv(18, 6, nil)
	env.FaultHook = inj.Hook()
	tbl, ctx := runChaosConfig(t, env, 8, false)
	if tbl == "" {
		t.Fatal("empty result")
	}
	if ctx.Stats.QuarantinedDocs == 0 {
		t.Fatal("no documents quarantined by injected panics")
	}
	if ctx.Stats.QuarantineRetries != 0 {
		t.Errorf("panics were retried %d times; panics must never be retried", ctx.Stats.QuarantineRetries)
	}
	found := false
	for _, r := range ctx.DegradedReport().Quarantined {
		if strings.Contains(r.Cause, "panic") {
			found = true
		}
	}
	if !found {
		t.Error("no quarantine record names the panic")
	}
}

// TestChaosRetriesTransientErrors checks the capped-retry path: a fault
// hook that fails once per document and then succeeds must produce
// retries but no quarantine.
func TestChaosRetriesTransientErrors(t *testing.T) {
	env := chaosEnv(12, 4, nil)
	failed := struct {
		mu   chan struct{}
		seen map[string]bool
	}{mu: make(chan struct{}, 1), seen: map[string]bool{}}
	failed.mu <- struct{}{}
	env.FaultHook = func(site string, docs []string) error {
		if site != "feature" || len(docs) == 0 {
			return nil
		}
		<-failed.mu
		defer func() { failed.mu <- struct{}{} }()
		if !failed.seen[docs[0]] {
			failed.seen[docs[0]] = true
			return errors.New("transient")
		}
		return nil
	}
	tbl, ctx := runChaosConfig(t, env, 4, false)
	if ctx.Stats.QuarantineRetries == 0 {
		t.Error("transient errors produced no retries")
	}
	if ctx.Stats.QuarantinedDocs != 0 {
		t.Errorf("transient errors quarantined %d docs; retry should have recovered them",
			ctx.Stats.QuarantinedDocs)
	}

	// The retried run must match a wholly fault-free one.
	cleanEnv := chaosEnv(12, 4, nil)
	cleanTbl, _ := runChaosConfig(t, cleanEnv, 4, false)
	if tbl != cleanTbl {
		t.Error("retried run differs from fault-free run")
	}
}

// TestChaosDeadlinePartialResult is the deadline acceptance test: with
// per-unit injected latency making the full evaluation far exceed the
// deadline, ExecuteContext must return within 2x the deadline with a
// non-nil partial table, a populated degradation report, and no leaked
// goroutines.
func TestChaosDeadlinePartialResult(t *testing.T) {
	t.Run("figure2", func(t *testing.T) {
		rule := fault.Rule{Site: "pfunc", Mode: fault.ModeLatency, Num: 1, Den: 1, Latency: 2 * time.Millisecond}
		chaosDeadlinePartialResult(t, figure2Src, rule, 30, 10, 2, false)
	})
	// Procedures are not fanned out, so forty slow calls overrun the
	// deadline at any worker count; the products above them are cut in turn.
	rule := fault.Rule{Site: "proc", Mode: fault.ModeLatency, Num: 1, Den: 1, Latency: 10 * time.Millisecond}
	for _, workers := range []int{1, 8} {
		for _, delta := range []bool{false, true} {
			t.Run(fmt.Sprintf("proc and cross/workers=%d delta=%v", workers, delta), func(t *testing.T) {
				partial := chaosDeadlinePartialResult(t, chaosProcCrossSrc, rule, 12, 40, workers, delta)
				// No ψ above the cut operators: what a partial run keeps, the
				// complete run has.
				full, _ := runChaosProgram(t, chaosProcCrossSrc, chaosEnv(12, 40, nil), 1, false)
				for _, tp := range partial.Tuples {
					if !strings.Contains(full, tp.String()) {
						t.Errorf("partial result holds %s, which the complete run does not", tp)
					}
				}
			})
		}
	}
}

func chaosDeadlinePartialResult(t *testing.T, src string, rule fault.Rule, nHouses, nSchools, workers int, delta bool) *compact.Table {
	inj := fault.New(5, rule)
	env := chaosEnv(nHouses, nSchools, nil)
	env.FaultHook = inj.Hook()
	prog := alog.MustParse(src)
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.Workers = workers
	if delta {
		ctx.EnableDelta()
	}

	before := runtime.NumGoroutine()
	deadline := 250 * time.Millisecond
	c, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	tbl, err := plan.ExecuteContext(c, ctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed >= 2*deadline {
		t.Errorf("ExecuteContext took %v, over 2x the %v deadline", elapsed, deadline)
	}
	if tbl == nil {
		t.Fatal("nil table from a best-effort deadline run")
	}
	if tbl.Degraded == nil || !tbl.Degraded.DeadlineExpired {
		t.Fatalf("degradation report missing or not expired: %+v", tbl.Degraded)
	}
	if len(tbl.Degraded.UnprocessedDocs) == 0 {
		t.Error("deadline expired but no documents recorded as unprocessed")
	}
	if ctx.Stats.DeadlineCuts == 0 {
		t.Error("no operator loop recorded a deadline cut")
	}

	// Worker goroutines must drain: poll until the count settles back.
	settled := false
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			settled = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !settled {
		t.Errorf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
	}
	return tbl
}
