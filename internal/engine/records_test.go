package engine_test

// The tests here hold the per-document record tables to their lifetime: a
// typed operand record is parsed once per document span for as long as the
// Env's table for the document lives — across nodes, contexts, trials and
// worker counts — and reading one loads no page.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/feature"
	"iflex/internal/text"
)

// refinedT8 is T8 with every answer its oracle knows folded in, for the
// given attributes only (all of them when none is named).
func refinedT8(t *testing.T, attrs ...string) (*corpus.Task, *alog.Program) {
	t.Helper()
	task, err := corpus.TaskByID("T8")
	if err != nil {
		t.Fatal(err)
	}
	prog := alog.MustParse(task.Program)
	answers := task.Oracle().Answers
	if len(attrs) == 0 {
		for a := range answers {
			attrs = append(attrs, a)
		}
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		pred, v, _ := strings.Cut(a, ".")
		feats := make([]string, 0, len(answers[a]))
		for f, val := range answers[a] {
			if val != feature.Unknown {
				feats = append(feats, f)
			}
		}
		sort.Strings(feats)
		for _, f := range feats {
			if err := prog.AddConstraint(alog.AttrRef{Pred: pred, Var: v}, f, answers[a][f]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return task, prog
}

func execute(t *testing.T, env *engine.Env, ctx *engine.Context, prog *alog.Program) (*engine.Plan, *compact.Table) {
	t.Helper()
	plan, err := engine.Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return plan, tbl
}

// TestOperandRecordsOutliveContexts: a second Context over the same Env and
// the converged T8 plan parses no operand at all, and contexts of 1, 2 and 8
// workers over fresh Envs each parse the same number.
func TestOperandRecordsOutliveContexts(t *testing.T) {
	task, prog := refinedT8(t)
	c := task.Generate(200, 3)
	var parsed []int64
	var want string
	for _, workers := range []int{1, 2, 8} {
		env := task.Env(c)
		ctx := engine.NewContext(env)
		ctx.Workers = workers
		_, first := execute(t, env, ctx, prog)
		parsed = append(parsed, ctx.Stats.CmpOperandsParsed)
		if want == "" {
			want = first.String()
		}
		again := engine.NewContext(env)
		again.Workers = workers
		_, second := execute(t, env, again, prog)
		if again.Stats.CmpOperandsParsed != 0 || again.Stats.FuncCalls != ctx.Stats.FuncCalls {
			t.Errorf("workers=%d: a second context parsed %d operands for %d comparisons (the first %d for %d)", workers,
				again.Stats.CmpOperandsParsed, again.Stats.FuncCalls, ctx.Stats.CmpOperandsParsed, ctx.Stats.FuncCalls)
		}
		if first.String() != want || second.String() != want {
			t.Errorf("workers=%d: tables differ", workers)
		}
		if again.Stats.DocRecordBytes == 0 || again.Stats.Snapshot().DocRecordBytes != env.FeatureMemo.Bytes() {
			t.Errorf("workers=%d: doc_record_bytes %d, the tables hold %d", workers, again.Stats.DocRecordBytes, env.FeatureMemo.Bytes())
		}
	}
	if parsed[0] == 0 || parsed[1] != parsed[0] || parsed[2] != parsed[0] {
		t.Errorf("operands parsed at workers 1/2/8: %v", parsed)
	}
}

// TestPlanOutlivesEvictedTables: the converged T8 plan carries the
// constraint handles it was compiled with. Once Memo.Evict has dropped every
// record table, the plan evaluates in a fresh context to the identical
// canonical table, every region list built again under the same handles.
func TestPlanOutlivesEvictedTables(t *testing.T) {
	task, prog := refinedT8(t)
	env := task.Env(task.Generate(200, 5))
	plan, first := execute(t, env, engine.NewContext(env), prog)
	if freed := env.FeatureMemo.Evict(math.MaxInt64); freed <= 0 || env.FeatureMemo.Bytes() != 0 {
		t.Fatalf("evicting every table freed %d bytes and left %d", freed, env.FeatureMemo.Bytes())
	}
	ctx := engine.NewContext(env)
	again, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again.Canonical() != first.Canonical() {
		t.Fatalf("after eviction the plan gives\n%s\nbefore\n%s", again, first)
	}
	if ctx.Stats.FeatureMemoMisses == 0 || env.FeatureMemo.Bytes() == 0 {
		t.Fatalf("%d misses, %d bytes: no table was built again", ctx.Stats.FeatureMemoMisses, env.FeatureMemo.Bytes())
	}
}

// TestTrialOnOtherAttributeParsesNothing: once a subset step has evaluated
// the comparisons over the price columns, a trial that constrains the title
// rebuilds every tuple below them — ψ hands them fresh cells — and still
// costs the comparisons no parse: their operands are keyed by what the
// cells say, not by which slice says it.
func TestTrialOnOtherAttributeParsesNothing(t *testing.T) {
	task, prog := refinedT8(t, "extractAmazon.lp", "extractAmazon.np", "extractAmazon.up")
	c := task.Generate(200, 4)
	env := task.Env(c)
	ctx := engine.NewContext(env)
	ctx.EnableDelta()
	subset := map[string]bool{}
	for _, d := range c.DocsOf("Amazon")[:50] {
		subset[d.ID()] = true
	}
	ctx.SetDocFilter(subset)
	base, _ := execute(t, env, ctx, prog)
	before := ctx.Stats
	if before.CmpOperandsParsed == 0 {
		t.Fatal("the subset step parsed no operand; the test shows nothing")
	}
	trial := prog.Clone()
	if err := trial.AddConstraint(alog.AttrRef{Pred: "extractAmazon", Var: "t"}, "bold-font", feature.Yes); err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Compile(trial, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx.RegisterDelta(base.Root, plan.Root)
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.NodesEvaluated == before.NodesEvaluated || ctx.Stats.RefineCalls == before.RefineCalls {
		t.Fatal("the trial evaluated nothing")
	}
	if got := ctx.Stats.CmpOperandsParsed - before.CmpOperandsParsed; got != 0 {
		t.Errorf("a trial on extractAmazon.t parsed %d operands", got)
	}
}

// TestOperandRecordsNeedNoPage: with the records of a comparison's cells
// built, the pages are released; a second comparison node over the same
// cells decides every tuple without loading one of them, and as a context
// that has to load them all does.
func TestOperandRecordsNeedNoPage(t *testing.T) {
	var loads atomic.Int64 // pages load on whichever worker meets them first
	var docs []*text.Document
	in := compact.NewTable("a", "b")
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf("%d  apples %d", 10+i%7, 18-i%11)
		d := text.NewLazyDocument(fmt.Sprintf("p%d", i), len(body), func() (text.DocContent, error) {
			loads.Add(1)
			return text.DocContent{Text: body}, nil
		})
		docs = append(docs, d)
		cut := strings.LastIndex(body, " ") + 1
		in.Append(compact.Tuple{Cells: []compact.Cell{
			compact.ExpandCell(text.ExactOf(d.Span(0, 2)), text.ExactOf(d.Span(4, 10))),
			compact.ExactCell(d.Span(cut, len(body))),
		}})
	}
	env := engine.NewEnv()
	env.Tables["T"] = in
	ctx := engine.NewContext(env)
	ctx.Workers = 1
	if _, tbl := execute(t, env, ctx, alog.MustParse(`Q(a, b) :- T(a, b), a < b.`)); len(tbl.Tuples) == 0 || loads.Load() != int64(len(docs)) {
		t.Fatalf("first comparison: %d tuples after %d loads of %d pages", len(tbl.Tuples), loads.Load(), len(docs))
	}
	for _, d := range docs {
		if !d.Release() {
			t.Fatal("page was not resident")
		}
	}
	loads.Store(0)
	second := alog.MustParse(`Q(a, b) :- T(a, b), b <= a.`)
	_, got := execute(t, env, ctx, second)
	if loads.Load() != 0 || ctx.Stats.CmpOperandsParsed != int64(3*len(docs)) {
		t.Fatalf("second comparison loaded %d pages and left %d operands parsed (want 0 and %d)", loads.Load(), ctx.Stats.CmpOperandsParsed, 3*len(docs))
	}
	cold := engine.NewEnv()
	cold.Tables["T"] = in
	_, want := execute(t, cold, engine.NewContext(cold), second)
	if loads.Load() != int64(len(docs)) || len(want.Tuples) == 0 || len(want.Tuples) == len(in.Tuples) || got.String() != want.String() {
		t.Fatalf("released pages decided\n%s\nloaded pages (%d loads)\n%s", got, loads.Load(), want)
	}
}

// TestChaosRecordsOfFailedLoad: a page whose load fails while its records
// are being built is quarantined with nothing published for it; after the
// retry that quarantine grants a new context, the same Env parses the
// operands of exactly the pages that now load.
func TestChaosRecordsOfFailedLoad(t *testing.T) {
	failing := true
	in := compact.NewTable("a")
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf("%d", 5+i)
		flaky := i == 3
		d := text.NewLazyDocument(fmt.Sprintf("q%d", i), len(body), func() (text.DocContent, error) {
			if flaky && failing {
				return text.DocContent{}, errors.New("injected shard read error")
			}
			return text.DocContent{Text: body}, nil
		})
		in.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(d.WholeSpan())}})
	}
	env := engine.NewEnv()
	env.Tables["T"] = in
	prog := alog.MustParse(`Q(a) :- T(a), a > 6.`)
	ctx := engine.NewContext(env)
	_, tbl := execute(t, env, ctx, prog)
	if len(tbl.Tuples) != 3 || ctx.Stats.QuarantinedDocs != 1 || ctx.Stats.CmpOperandsParsed != 5 {
		t.Fatalf("with q3 failing: %d tuples, %d quarantined, %d operands parsed (want 3, 1, 5)",
			len(tbl.Tuples), ctx.Stats.QuarantinedDocs, ctx.Stats.CmpOperandsParsed)
	}
	failing = false
	healed := engine.NewContext(env)
	if _, tbl := execute(t, env, healed, prog); len(tbl.Tuples) != 4 || healed.Stats.CmpOperandsParsed != 1 {
		t.Fatalf("with q3 loading: %d tuples, %d operands parsed (want 4 and q3's 1)", len(tbl.Tuples), healed.Stats.CmpOperandsParsed)
	}
}

// TestResultTablesGoBeforeRecordTables: the record tables count against
// CacheBudget, but result tables make room first and a page's records go
// only when no other result table is left, least recently used page first.
// Over a session-like sequence of plans on one context (T8 refined one
// attribute at a time), a budget the records fit in beside a few tables
// evicts tables and keeps every record; a budget below the records evicts
// some of them and keeps the rest. After every plan CacheBytes +
// DocRecordBytes is within the budget plus the entry stored last (the
// plan's result), and every result equals the unbudgeted one.
func TestResultTablesGoBeforeRecordTables(t *testing.T) {
	task, _ := refinedT8(t)
	var attrs []string
	for a := range task.Oracle().Answers {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	progs := make([]*alog.Program, len(attrs)+1)
	for k := range progs {
		_, progs[k] = refinedT8(t, attrs[:k]...)
	}
	c := task.Generate(100, 6)
	run := func(budget int64) (results []string, ctx *engine.Context, env *engine.Env) {
		env = task.Env(c)
		ctx = engine.NewContext(env)
		ctx.Workers, ctx.CacheBudget = 1, budget
		for k, prog := range progs {
			_, tbl := execute(t, env, ctx, prog)
			results = append(results, tbl.String())
			held, _ := ctx.CacheInfo()
			if budget > 0 && held+ctx.Stats.DocRecordBytes > budget+tbl.MemBytes() {
				t.Errorf("budget %d, plan %d: %d table bytes and %d record bytes exceed it by more than the %d-byte result",
					budget, k, held, ctx.Stats.DocRecordBytes, tbl.MemBytes())
			}
		}
		return results, ctx, env
	}
	want, free, _ := run(0)
	records, largest := free.Stats.DocRecordBytes, int64(0)
	for _, ct := range engine.CachedTablesForTest(free) {
		largest = max(largest, ct.Table.MemBytes())
	}
	if records == 0 || free.Stats.CacheEvictions != 0 {
		t.Fatalf("unbudgeted: %d record bytes, %d evictions", records, free.Stats.CacheEvictions)
	}
	for _, leg := range []struct {
		name        string
		budget      int64
		keepRecords bool
	}{
		{"records and a few results", records + 3*largest, true},
		{"half the records", records / 2, false},
	} {
		got, ctx, env := run(leg.budget)
		if !slices.Equal(got, want) {
			t.Errorf("%s: results differ from the unbudgeted run", leg.name)
		}
		if ctx.Stats.CacheEvictions == 0 {
			t.Errorf("%s: no result table evicted", leg.name)
		}
		left := env.FeatureMemo.Bytes()
		if kept := left == records; kept != leg.keepRecords || left == 0 {
			t.Errorf("%s: %d of %d record bytes left", leg.name, left, records)
		}
	}
}
