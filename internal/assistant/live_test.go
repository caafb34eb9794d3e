package assistant_test

// Tests of the live-corpus session surface (live.go): after a store
// mutation, ApplyCorpusDelta + Reevaluate must produce a result
// byte-identical to a fresh session over the mutated corpus while
// replaying most tuples from the displaced memos.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/store"
	"iflex/internal/text"
)

const liveJoinSrc = `
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>) :- R(y), e2(y, t).
Q(x, s, y, t) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
`

// buildLiveStore writes a two-group corpus (l-*/r-* ids) with bold
// titles drawn from a shared pool so several pairs join.
func buildLiveStore(t *testing.T, dir string) {
	t.Helper()
	w, err := store.Create(dir, store.Options{ShardDocs: 6})
	if err != nil {
		t.Fatal(err)
	}
	titles := []string{
		"query planning handbook", "join order primer", "index structures",
		"stream systems", "cache coherence", "log structured storage",
		"query planning handbook", "index structures", "stream systems",
		"join order primer",
	}
	for i := 0; i < 10; i++ {
		if err := w.Add(fmt.Sprintf("l-%d", i), fmt.Sprintf("<b>%s</b> left page %d", titles[i], i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := w.Add(fmt.Sprintf("r-%d", i), fmt.Sprintf("<b>%s</b> right page %d", titles[9-i], i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func setLiveTables(env *engine.Env, s *store.DiskStore) {
	var l, r []*text.Document
	for _, d := range s.Docs() {
		if d.ID()[0] == 'l' {
			l = append(l, d)
		} else {
			r = append(r, d)
		}
	}
	env.AddDocTable("L", "x", l)
	env.AddDocTable("R", "y", r)
}

// liveCase is one input to the commit → ApplyCorpusDelta → Reevaluate
// check: a store, how its live view binds to the program's tables, the
// dialogue's oracle, a mutation, and the session configurations that must
// all land on the same result.
type liveCase struct {
	build   func(t *testing.T, dir string)
	tables  func(env *engine.Env, s *store.DiskStore)
	program string
	oracle  func() assistant.Oracle
	mutate  func(t *testing.T, s *store.DiskStore, m *store.Mutation)
	configs []assistant.Config
}

// TestSessionApplyCorpusDelta: converge store-backed sessions, mutate the
// store, fold the delta in, and re-evaluate — every live result must be
// byte-identical to a fresh session's run of the same refined program
// over the mutated corpus, with more tuples replayed than recomputed.
func TestSessionApplyCorpusDelta(t *testing.T) {
	t.Run("handmade", func(t *testing.T) {
		checkLiveCase(t, liveCase{
			build:   buildLiveStore,
			tables:  setLiveTables,
			program: liveJoinSrc,
			oracle:  func() assistant.Oracle { return assistant.NewMapOracle(nil) },
			mutate: func(t *testing.T, _ *store.DiskStore, m *store.Mutation) {
				put(t, m, "l-1", "<b>cache coherence</b> left page 1 revised")
				if err := m.Remove("r-5"); err != nil {
					t.Fatal(err)
				}
				put(t, m, "r-10", "<b>index structures</b> fresh right page")
			},
			configs: []assistant.Config{{}},
		})
	})
	// T9 over a generated Books store of 1,000 pages, 1% of them rewritten
	// with the next seed's content, at Workers 1 and 8.
	t.Run("books", func(t *testing.T) {
		if testing.Short() {
			t.Skip("two T9 dialogues over 1,000 pages")
		}
		const records, seed = 500, 1
		task, err := corpus.TaskByID("T9")
		if err != nil {
			t.Fatal(err)
		}
		// gen returns one seed's generated pages: ids in table order, and
		// the markup of each.
		gen := func(seed int64) (ids []string, raw map[string]string) {
			raw = map[string]string{}
			c := task.Generate(records, seed)
			for _, name := range task.Tables {
				for i, d := range c.Tables[name].Docs {
					ids = append(ids, d.ID())
					raw[d.ID()] = c.Tables[name].Raw[i]
				}
			}
			return ids, raw
		}
		var configs []assistant.Config
		for _, workers := range []int{1, 8} {
			configs = append(configs, assistant.Config{Strategy: assistant.Sequential{}, SubsetSeed: seed, Workers: workers})
		}
		checkLiveCase(t, liveCase{
			build: func(t *testing.T, dir string) {
				w, err := store.Create(dir, store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ids, raw := gen(seed)
				for _, id := range ids {
					if err := w.Add(id, raw[id]); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			},
			tables: func(env *engine.Env, s *store.DiskStore) {
				var amazon, barnes []*text.Document
				for _, d := range s.Docs() {
					if strings.HasPrefix(d.ID(), "amazon") {
						amazon = append(amazon, d)
					} else {
						barnes = append(barnes, d)
					}
				}
				env.AddDocTable("Amazon", "x", amazon)
				env.AddDocTable("Barnes", "x", barnes)
			},
			program: task.Program,
			oracle:  func() assistant.Oracle { return task.Oracle() },
			mutate: func(t *testing.T, s *store.DiskStore, m *store.Mutation) {
				_, next := gen(seed + 1)
				for i, d := range s.Docs() {
					if i%100 == 50 {
						put(t, m, d.ID(), next[d.ID()])
					}
				}
			},
			configs: configs,
		})
	})
}

func put(t *testing.T, m *store.Mutation, id, raw string) {
	t.Helper()
	if err := m.Put(id, raw); err != nil {
		t.Fatal(err)
	}
}

func checkLiveCase(t *testing.T, lc liveCase) {
	dir := t.TempDir()
	lc.build(t, dir)
	s, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	newEnv := func() *engine.Env {
		env := engine.NewEnv()
		lc.tables(env, s)
		env.DocIndex, env.Postings = s, s
		return env
	}

	// One converged session per configuration, before the mutation.
	var sessions []*assistant.Session
	var before string
	for _, cfg := range lc.configs {
		sess := assistant.NewSession(newEnv(), alog.MustParse(lc.program), lc.oracle(), cfg)
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		before = res.Final.Canonical()
		sessions = append(sessions, sess)
	}

	m, err := s.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	lc.mutate(t, s, m)
	d, err := m.Commit()
	if err != nil {
		t.Fatal(err)
	}

	// From scratch: a fresh session over the mutated store running the
	// refined program the dialogue converged to.
	fresh := assistant.NewSession(newEnv(), sessions[0].Program(), assistant.NewMapOracle(nil), lc.configs[0])
	scratch, err := fresh.Finalize(0)
	if err != nil {
		t.Fatal(err)
	}
	want := scratch.Final.Canonical()
	if want == before {
		t.Fatal("mutation did not change the result; test corpus too sparse")
	}

	for i, sess := range sessions {
		held := sess.StatsSnapshot().DocRecordBytes
		sess.ApplyCorpusDelta(
			&engine.CorpusDelta{Added: d.Added, Updated: d.Updated, Removed: d.Removed},
			func(env *engine.Env) { lc.tables(env, s) },
		)
		// The handles the mutation replaced or removed took their record
		// tables with them: the session holds fewer bytes, and no table of
		// any of those ids is left to drop.
		gone := map[string]bool{}
		for _, id := range append(slices.Clone(d.Updated), d.Removed...) {
			gone[id] = true
		}
		if now, left := sess.StatsSnapshot().DocRecordBytes, sess.Env.FeatureMemo.DropDocs(gone); now >= held || left != 0 {
			t.Fatalf("config %d: doc_record_bytes %d -> %d, %d superseded documents still own records", i, held, now, left)
		}
		up, err := sess.Reevaluate(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := up.Final.Canonical(); got != want {
			t.Fatalf("config %d: live result differs from fresh session:\n%s\nwant:\n%s", i, got, want)
		}
		if up.FinalTuples != scratch.FinalTuples {
			t.Fatalf("config %d: FinalTuples = %d, fresh session = %d", i, up.FinalTuples, scratch.FinalTuples)
		}
		if up.CorpusPriorHits == 0 {
			t.Fatalf("config %d: re-evaluation picked up no displaced priors", i)
		}
		if up.TuplesReused <= up.TuplesRecomputed {
			t.Fatalf("config %d: small delta did not reuse more than it recomputed: reused=%d recomputed=%d",
				i, up.TuplesReused, up.TuplesRecomputed)
		}
	}
}

// TestCorpusDeltasStayUnderBudget: a watch-mode session folds twenty
// one-page commits in, re-evaluating after each. The tables a delta
// displaces stay in the cache as stale entries, so those the next plans
// never evaluate again — every trial's — count against CacheBudget and go
// when it says so: the cache never holds more than the budget plus one
// table, where without a budget the same script holds several budgets'
// worth. What each re-evaluation replays does not depend on the budget.
func TestCorpusDeltasStayUnderBudget(t *testing.T) {
	const records, seed, deltas = 40, 1, 20
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	raw := func(seed int64) map[string]string {
		out := map[string]string{}
		c := task.Generate(records, seed)
		for _, name := range task.Tables {
			for i, d := range c.Tables[name].Docs {
				out[d.ID()] = c.Tables[name].Raw[i]
			}
		}
		return out
	}
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{FS: store.RealFS(false)})
	if err != nil {
		t.Fatal(err)
	}
	pages, next := raw(seed), raw(seed+1)
	c := task.Generate(records, seed)
	for _, name := range task.Tables {
		for _, d := range c.Tables[name].Docs {
			if err := w.Add(d.ID(), pages[d.ID()]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.OpenOptions{FS: store.RealFS(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tables := func(env *engine.Env) {
		byTable := map[string][]*text.Document{}
		for _, d := range st.Docs() {
			name := "Barnes"
			if strings.HasPrefix(d.ID(), "amazon") {
				name = "Amazon"
			}
			byTable[name] = append(byTable[name], d)
		}
		env.AddDocTable("Amazon", "x", byTable["Amazon"])
		env.AddDocTable("Barnes", "x", byTable["Barnes"])
	}
	converge := func(budget int64) *assistant.Session {
		env := engine.NewEnv()
		tables(env)
		sess := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(),
			assistant.Config{Strategy: assistant.Simulation{}, SubsetSeed: seed, Workers: 1, CacheBudget: budget})
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	free := converge(0)
	// One full pass of the converged program, its result tables and the
	// record tables it reads, is what a re-evaluation needs resident. The
	// budget is room for two passes of result tables beside the record
	// tables the converged session holds: one region list per constraint
	// any trial applied, several times a pass's, and the cache evicts every
	// result table before a record table.
	env := engine.NewEnv()
	tables(env)
	pass := assistant.NewSession(env, free.Program(), assistant.NewMapOracle(nil), assistant.Config{Workers: 1})
	if _, err := pass.Reevaluate(0); err != nil {
		t.Fatal(err)
	}
	ps := pass.StatsSnapshot()
	working := ps.CacheBytes + ps.DocRecordBytes
	budget := 2*ps.CacheBytes + free.StatsSnapshot().DocRecordBytes
	bounded := converge(budget)

	var peak int64
	for i := 0; i < deltas; i++ {
		m, err := st.BeginMutation()
		if err != nil {
			t.Fatal(err)
		}
		id := st.Docs()[(7*i+3)%len(st.Docs())].ID()
		put(t, m, id, next[id]+fmt.Sprintf("<p>revision %d</p>", i))
		d, err := m.Commit()
		if err != nil {
			t.Fatal(err)
		}
		var ups [2]*assistant.LiveUpdate
		for j, sess := range []*assistant.Session{free, bounded} {
			sess.ApplyCorpusDelta(&engine.CorpusDelta{Added: d.Added, Updated: d.Updated, Removed: d.Removed}, tables)
			if ups[j], err = sess.Reevaluate(0); err != nil {
				t.Fatal(err)
			}
		}
		peak = max(peak, free.StatsSnapshot().CacheBytes)
		if got := bounded.StatsSnapshot().CacheBytes; got > budget+working {
			t.Fatalf("delta %d: %d bytes cached under a budget of %d (one pass is %d)", i, got, budget, working)
		}
		f, b := ups[0], ups[1]
		if f.Final.Canonical() != b.Final.Canonical() {
			t.Fatalf("delta %d: the bounded session's result differs", i)
		}
		if f.CorpusPriorHits != b.CorpusPriorHits || f.TuplesReused != b.TuplesReused || f.TuplesRecomputed != b.TuplesRecomputed {
			t.Fatalf("delta %d: prior hits/reused/recomputed %d/%d/%d, under the budget %d/%d/%d", i,
				f.CorpusPriorHits, f.TuplesReused, f.TuplesRecomputed, b.CorpusPriorHits, b.TuplesReused, b.TuplesRecomputed)
		}
		if f.CorpusPriorHits == 0 || f.TuplesReused <= f.TuplesRecomputed {
			t.Fatalf("delta %d: %d prior hits, %d tuples reused, %d recomputed: nothing replayed", i,
				f.CorpusPriorHits, f.TuplesReused, f.TuplesRecomputed)
		}
	}
	fs, bs := free.StatsSnapshot(), bounded.StatsSnapshot()
	t.Logf("one pass %d bytes, budget %d, unbounded peak %d, bounded now %d (%d evicted); prior hits/reused/recomputed %d/%d/%d",
		working, budget, peak, bs.CacheBytes, bs.CacheEvictions, fs.CorpusPriorHits, fs.TuplesReused, fs.TuplesRecomputed)
	if bs.CacheEvictions == 0 {
		t.Fatal("the bounded session evicted nothing: the budget does not bind")
	}
	if peak <= budget+working {
		t.Fatalf("without a budget the cache peaked at %d bytes, within budget %d plus one pass %d: the stale tables are not counted, or the script leaves none", peak, budget, working)
	}
}
