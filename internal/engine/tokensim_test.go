package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/fault"
	"iflex/internal/similarity"
	"iflex/internal/store"
	"iflex/internal/text"
)

// titleWords is a vocabulary small enough that random titles overlap, with
// articles, a very common word and a few rare ones, so the rarity order and
// the article handling both matter.
var titleWords = []string{"the", "a", "of", "of", "of", "database", "database", "systems", "query",
	"join", "text", "mining", "streams", "index", "zebra", "quark"}

func randTitle(r *rand.Rand) string {
	n := 1 + r.Intn(6)
	toks := make([]string, n)
	for i := range toks {
		toks[i] = titleWords[r.Intn(len(titleWords))]
	}
	return strings.Join(toks, " ")
}

// opaqueEnv is env with the similarity declaration withdrawn: the same
// p-function decided by its opaque Func over the valuation odometer behind
// any-shared-token blocking — the probe this PR replaced, kept reachable
// as the oracle.
func opaqueEnv(env *Env) *Env {
	for name, pf := range env.Funcs {
		pf.Token = nil
		env.Funcs[name] = pf
	}
	return env
}

// TestTokenFilterEqualsOdometer compares the value-level probe with the
// valuation odometer over the opaque similar() on random pairs of cells —
// pinned, contain, expansion, several assignments — under default and
// tight limits: every outcome field must agree, replacement cells
// included.
func TestTokenFilterEqualsOdometer(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	env := NewEnv()
	ctx := NewContext(env)
	sim := &tokenSim{ctx: ctx, spec: *env.Funcs["similar"].Token}
	opaque := env.Funcs["similar"].Fn
	randCell := func(id string) compact.Cell {
		var c compact.Cell
		for k := 1 + r.Intn(2); k > 0; k-- {
			d := mustDoc(fmt.Sprintf("%s-%d", id, k), randTitle(r))
			if r.Intn(3) == 0 {
				c.Assigns = append(c.Assigns, text.ExactOf(d.WholeSpan()))
			} else {
				c.Assigns = append(c.Assigns, text.ContainOf(d.WholeSpan()))
			}
		}
		c.Expand = r.Intn(2) == 0
		return c
	}
	limits := []Limits{DefaultLimits(), {MaxCellValues: 6, MaxValuations: 1024}, {MaxCellValues: 512, MaxValuations: 12}}
	var sc simScratch
	kept, partial := 0, 0
	for trial := 0; trial < 3000; trial++ {
		tp := compact.Tuple{Cells: []compact.Cell{randCell(fmt.Sprintf("l%d", trial)), randCell(fmt.Sprintf("r%d", trial))}}
		lim := limits[trial%len(limits)]
		var batch statBatch
		want, err := filterTupleF(tp, pairInvolved, opaque, lim, &batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.filter(tp, pairInvolved, lim,
			func() *cellTokens { return sim.cellTokens(tp.Cells[0], true, &sc) },
			func() *cellTokens { return sim.cellTokens(tp.Cells[1], false, &sc) }, &sc, &batch)
		if err != nil {
			t.Fatal(err)
		}
		render := func(o filterOutcome) string {
			s := fmt.Sprintf("keep=%v sure=%v fallback=%v", o.keep, o.sure, o.fallback)
			for _, ci := range pairInvolved {
				if c, ok := o.repl[ci]; ok {
					s += fmt.Sprintf(" repl[%d]=%s", ci, c)
				}
			}
			return s
		}
		if render(got) != render(want) {
			t.Fatalf("trial %d (limits %+v) on %v:\nprobe    %s\nodometer %s", trial, lim, tp, render(got), render(want))
		}
		if got.keep && !got.fallback {
			kept++
			if len(got.repl) > 0 {
				partial++
			}
		}
	}
	if kept == 0 || partial == 0 {
		t.Fatalf("weak corpus: %d kept pairs, %d with filtered expansion cells", kept, partial)
	}
}

// titleDocs builds one single-title document per string.
func titleDocs(prefix string, titles []string) []*text.Document {
	docs := make([]*text.Document, len(titles))
	for i, s := range titles {
		docs[i] = mustDoc(fmt.Sprintf("%s%03d", prefix, i), s)
	}
	return docs
}

// TestNoTruePairLost checks the filters against brute force on seeded
// random title sets. Tuple level: with every cell pinned to one title, the
// join keeps exactly the pairs similarity.Similar accepts among all
// |L|·|R|, while evaluating far fewer. Value level: with every cell a
// contain() over its title, a pair survives iff some pair of sub-span
// values is similar.
func TestNoTruePairLost(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		var lt, rtl []string
		for i := 0; i < 60; i++ {
			lt, rtl = append(lt, randTitle(r)), append(rtl, randTitle(r))
		}
		ldocs, rdocs := titleDocs("l", lt), titleDocs("r", rtl)
		run := func(src string) (*compact.Table, Stats) {
			env := NewEnv()
			env.AddDocTable("L", "x", ldocs)
			env.AddDocTable("R", "y", rdocs)
			plan, err := Compile(alog.MustParse(src), env)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewContext(env)
			res, err := plan.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return res, ctx.Stats
		}
		pairsOf := func(res *compact.Table) map[string]bool {
			out := map[string]bool{}
			for _, tp := range res.Tuples {
				out[tp.Cells[0].Assigns[0].Span.Doc().ID()+"~"+tp.Cells[1].Assigns[0].Span.Doc().ID()] = true
			}
			return out
		}
		diff := func(level string, got, want map[string]bool) {
			for k := range want {
				if !got[k] {
					t.Errorf("seed %d, %s level: true pair %s lost", seed, level, k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("seed %d, %s level: pair %s kept but no values are similar", seed, level, k)
				}
			}
		}

		res, st := run(docJoinSrc)
		want := map[string]bool{}
		for i, a := range lt {
			for j, b := range rtl {
				if similarity.Similar(a, b) {
					want[ldocs[i].ID()+"~"+rdocs[j].ID()] = true
				}
			}
		}
		diff("tuple", pairsOf(res), want)
		if len(want) == 0 || st.SimTuplePairs >= int64(len(lt)*len(rtl))/2 {
			t.Errorf("seed %d: %d true pairs, %d of %d tuple pairs evaluated — corpus or filter too weak",
				seed, len(want), st.SimTuplePairs, len(lt)*len(rtl))
		}

		res, st = run(`Q(x, y) :- L(x), from(x, s), R(y), from(y, t), similar(s, t).`)
		want = map[string]bool{}
		subs := func(d *text.Document) (out []string) {
			text.ContainOf(d.WholeSpan()).Values(func(s text.Span) bool {
				out = append(out, s.NormText())
				return true
			})
			return out
		}
		combos := 0
		for i := range lt {
			for j := range rtl {
				ls, rs := subs(ldocs[i]), subs(rdocs[j])
				combos += len(ls) * len(rs)
				for _, a := range ls {
					for _, b := range rs {
						if similarity.Similar(a, b) {
							want[ldocs[i].ID()+"~"+rdocs[j].ID()] = true
						}
					}
				}
			}
		}
		diff("value", pairsOf(res), want)
		if st.SimValuePairsVerified == 0 || st.SimValuePairsVerified >= int64(combos)/2 {
			t.Errorf("seed %d: verified %d of %d value combinations — filter too weak", seed, st.SimValuePairsVerified, combos)
		}
	}
}

// multiValuedSrc joins extracted attributes that carry no constraint yet —
// the shape of a session's first step: every join cell is a contain() over
// its page with many values, some pairs within the valuation limit and
// some beyond it.
const multiValuedSrc = `
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>) :- R(y), e2(y, t).
Q(s, t) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s).
e2(y, t) :- from(y, t).
`

// TestSimJoinSweepMultiValued runs the first-step shape across Workers
// 1/8 × delta × indexed/live, with the similarity declared and
// withdrawn: one table, and one similarity funnel per declaration state.
func TestSimJoinSweepMultiValued(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var lt, rtl []string
	for i := 0; i < 14; i++ {
		lt, rtl = append(lt, randTitle(r)+" trailing words here"), append(rtl, randTitle(r))
	}
	// One page long enough that its pairs exceed MaxValuations.
	lt = append(lt, strings.Repeat("database systems of the query ", 9))
	ldocs, rdocs := titleDocs("l", lt), titleDocs("r", rtl)
	all := append(append([]*text.Document{}, ldocs...), rdocs...)
	prog := alog.MustParse(multiValuedSrc)
	type key struct{ declared bool }
	tables := map[string]bool{}
	funnels := map[key][3]int64{}
	for _, declared := range []bool{true, false} {
		for _, indexed := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				for _, delta := range []bool{false, true} {
					env := NewEnv()
					if !declared {
						opaqueEnv(env)
					}
					env.AddDocTable("L", "x", ldocs)
					env.AddDocTable("R", "y", rdocs)
					if indexed {
						ms := store.NewMemStore(all)
						env.DocIndex, env.Postings = ms, ms
					}
					plan, err := Compile(prog, env)
					if err != nil {
						t.Fatal(err)
					}
					ctx := NewContext(env)
					ctx.Workers = workers
					if delta {
						ctx.EnableDelta()
					}
					res, err := plan.Execute(ctx)
					if err != nil {
						t.Fatal(err)
					}
					tables[res.Canonical()] = true
					if len(tables) != 1 {
						t.Fatalf("declared=%t indexed=%t workers=%d delta=%t: table differs from the first configuration's",
							declared, indexed, workers, delta)
					}
					f := [3]int64{ctx.Stats.SimTuplePairs, ctx.Stats.SimValuePairsProbed, ctx.Stats.SimValuePairsVerified}
					if prev, ok := funnels[key{declared}]; ok && prev != f {
						t.Fatalf("declared=%t indexed=%t workers=%d delta=%t: funnel %v, earlier configurations %v",
							declared, indexed, workers, delta, f, prev)
					}
					funnels[key{declared}] = f
					if ctx.Stats.LimitFallbacks == 0 {
						t.Fatal("no pair exceeded the valuation limit; the sweep does not cover the conservative path")
					}
				}
			}
		}
	}
	if f := funnels[key{true}]; f[2] == 0 {
		t.Fatalf("declared similarity verified no value pair: %v", f)
	}
}

// TestChaosProbeQuarantineSubset injects p-function faults into a join
// under the declared similarity and under the withdrawn one
// (any-shared-token blocking, every sharing pair evaluated). The new probe
// evaluates a subset of those pairs, so it must quarantine a subset of
// those documents — strictly fewer when the cells are pinned and the
// rarity prefix narrows the candidates, the same ones when they are
// multi-valued and tuple-level blocking is unchanged. And what either run
// returns must be exactly a clean run over the corpus minus what it
// quarantined — the same table whichever probe computes it.
func TestChaosProbeQuarantineSubset(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var lt, rtl []string
	for i := 0; i < 40; i++ {
		lt, rtl = append(lt, randTitle(r)), append(rtl, randTitle(r))
	}
	mkEnv := func(declared bool, exclude map[string]bool) *Env {
		env := NewEnv()
		if !declared {
			opaqueEnv(env)
		}
		keep := func(docs []*text.Document) (out []*text.Document) {
			for _, d := range docs {
				if !exclude[d.ID()] {
					out = append(out, d)
				}
			}
			return out
		}
		env.AddDocTable("L", "x", keep(titleDocs("l", lt)))
		env.AddDocTable("R", "y", keep(titleDocs("r", rtl)))
		return env
	}
	for _, c := range []struct {
		name, src string
		strict    bool
	}{
		{"pinned", docJoinSrc, true},
		{"multi-valued", `Q(x, y) :- L(x), from(x, s), R(y), from(y, t), similar(s, t).`, false},
	} {
		run := func(env *Env, workers int) (string, []string) {
			plan, err := Compile(alog.MustParse(c.src), env)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewContext(env)
			ctx.Workers = workers
			ctx.FaultPolicy = QuarantineFaults
			res, err := plan.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return res.Canonical(), ctx.QuarantinedDocs()
		}
		inj := fault.New(11, fault.Rule{Site: "pfunc", Mode: fault.ModeError, Num: 1, Den: 12})
		quarantined := map[bool][]string{}
		for _, declared := range []bool{true, false} {
			var tables []string
			for _, workers := range []int{1, 8} {
				env := mkEnv(declared, nil)
				env.FaultHook = inj.Hook()
				tbl, q := run(env, workers)
				tables = append(tables, tbl)
				if workers == 1 {
					quarantined[declared] = q
				} else if strings.Join(q, ",") != strings.Join(quarantined[declared], ",") {
					t.Errorf("%s declared=%t: quarantine differs across worker counts: %v vs %v", c.name, declared, q, quarantined[declared])
				}
			}
			if tables[0] != tables[1] {
				t.Errorf("%s declared=%t: faulted table differs across worker counts", c.name, declared)
			}
			exclude := map[string]bool{}
			for _, id := range quarantined[declared] {
				exclude[id] = true
			}
			for _, cleanDeclared := range []bool{true, false} {
				clean, q := run(mkEnv(cleanDeclared, exclude), 1)
				if len(q) != 0 {
					t.Fatalf("%s: clean run quarantined %v", c.name, q)
				}
				if clean != tables[0] {
					t.Errorf("%s declared=%t: faulted table differs from the clean run (declared=%t) over the survivors", c.name, declared, cleanDeclared)
				}
			}
		}
		if len(quarantined[true]) == 0 {
			t.Fatalf("%s: no faults fired under the declared similarity", c.name)
		}
		old := map[string]bool{}
		for _, id := range quarantined[false] {
			old[id] = true
		}
		for _, id := range quarantined[true] {
			if !old[id] {
				t.Errorf("%s: document %s quarantined under the new probe but not under any-shared-token blocking", c.name, id)
			}
		}
		if c.strict && len(quarantined[true]) >= len(quarantined[false]) {
			t.Errorf("%s: new probe quarantined %d documents, any-shared-token blocking %d: expected strictly fewer",
				c.name, len(quarantined[true]), len(quarantined[false]))
		}
	}
}

// TestBlockIndexChargesTokenRecords: the token records a cached blocking
// index keeps are part of what the byte-accounted cache charges for it.
func TestBlockIndexChargesTokenRecords(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var titles []string
	for i := 0; i < 50; i++ {
		titles = append(titles, randTitle(r))
	}
	env := NewEnv()
	env.AddDocTable("R", "y", titleDocs("r", titles))
	ctx := NewContext(env)
	rt := env.Tables["R"]
	all := make([]int, len(rt.Tuples))
	for j := range all {
		all[j] = j
	}
	sizes := map[bool]int64{}
	for _, declared := range []bool{false, true} {
		var sim *tokenSim
		if declared {
			sim = &tokenSim{ctx: ctx, spec: similarity.Default}
		}
		idx := newBlockIndex(ctx, rt, 0)
		if err := idx.fill(ctx, nil, sim, rt, 0, all); err != nil {
			t.Fatal(err)
		}
		sizes[declared] = idx.memBytes()
		if declared {
			var ids int64
			for _, rec := range idx.pinned {
				ids += int64(len(rec.Ord) + len(rec.Set))
			}
			if ids == 0 || sizes[true] < sizes[false]+4*ids {
				t.Errorf("index with %d record ids accounts %d bytes, %d without records", ids, sizes[true], sizes[false])
			}
			ranks := make([]int, 0, len(idx.rank))
			for _, rk := range idx.rank {
				ranks = append(ranks, int(rk))
			}
			sort.Ints(ranks)
			for i, rk := range ranks {
				if rk != i+1 {
					t.Fatalf("rarity ranks are not 1..n: %v", ranks)
				}
			}
		}
	}
}

// simJoinBench executes one similarity join over 400×400 generated titles
// per iteration, cold (fresh context), reporting the funnel beside ns and
// allocs per op. Titles draw two to six words from a 500-word vocabulary
// with a Zipf skew, like the Books corpus: a few words are everywhere, most
// are rare.
func simJoinBench(b *testing.B, src string) {
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.3, 4, 499)
	page := func() string {
		toks := make([]string, 2+r.Intn(5))
		for i := range toks {
			toks[i] = fmt.Sprintf("w%d", zipf.Uint64())
		}
		return strings.Join(toks, " ")
	}
	var lt, rtl []string
	for i := 0; i < 400; i++ {
		lt, rtl = append(lt, page()), append(rtl, page())
	}
	env := NewEnv()
	env.AddDocTable("L", "x", titleDocs("l", lt))
	env.AddDocTable("R", "y", titleDocs("r", rtl))
	plan, err := Compile(alog.MustParse(src), env)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st Stats
	for i := 0; i < b.N; i++ {
		ctx := NewContext(env)
		ctx.Workers = 1
		if _, err := plan.Execute(ctx); err != nil {
			b.Fatal(err)
		}
		st = ctx.Stats
	}
	b.ReportMetric(float64(st.SimTuplePairs), "tuple_pairs/op")
	b.ReportMetric(float64(st.SimValuePairsProbed), "probed/op")
	b.ReportMetric(float64(st.SimValuePairsVerified), "verified/op")
}

// BenchmarkSimJoinPinned is the converged shape: every join cell pinned to
// one title.
func BenchmarkSimJoinPinned(b *testing.B) { simJoinBench(b, docJoinSrc) }

// BenchmarkSimJoinFirstStep is the first-step shape: every join cell a
// contain() over its page, up to 21 values each.
func BenchmarkSimJoinFirstStep(b *testing.B) { simJoinBench(b, multiValuedSrc) }
