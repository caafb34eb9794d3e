package engine

import (
	"fmt"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/store"
	"iflex/internal/text"
)

// corpusJoinSrc extracts bold titles from two document sets and joins
// them approximately — the extraction chain exercises the unary-operator
// memos and the join a corpus delta that changes its right table, whose pin
// then rejects the displaced memo (extracted sub-spans cannot be
// postings-backed).
const corpusJoinSrc = `
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>) :- R(y), e2(y, t).
Q(x, s, y, t) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
`

// buildCorpusStore writes a two-group corpus (l-*/r-* ids) with bold
// titles drawn from a shared pool so several pairs match.
func buildCorpusStore(t *testing.T, dir string) {
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

// corpusEnv builds an Env whose L/R tables are the live l-*/r-* store
// views, indexed by the store.
func corpusEnv(s *store.DiskStore) *Env {
	env := NewEnv()
	setCorpusTables(env, s)
	env.DocIndex = s
	env.Postings = s
	return env
}

func setCorpusTables(env *Env, s *store.DiskStore) {
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

// TestCorpusDeltaByteIdentity: after a store mutation (update, removal,
// addition on both join sides), applying the corpus delta and
// re-executing the same plan yields a result byte-identical to a fresh
// context over the mutated corpus — while replaying most tuples from
// the displaced memos instead of recomputing them.
func TestCorpusDeltaByteIdentity(t *testing.T) {
	prog := alog.MustParse(corpusJoinSrc)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			buildCorpusStore(t, dir)
			s, err := store.Open(dir, store.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			env := corpusEnv(s)
			plan, err := Compile(prog, env)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewContext(env)
			ctx.Workers = workers
			ctx.EnableDelta()
			res1, err := plan.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			before := res1.Canonical()
			base := ctx.Stats.Snapshot()

			m, err := s.BeginMutation()
			if err != nil {
				t.Fatal(err)
			}
			// Update one document on each side, remove a left one, add a
			// right one whose title matches existing left titles.
			if err := m.Put("l-1", "<b>cache coherence</b> left page 1 revised"); err != nil {
				t.Fatal(err)
			}
			if err := m.Put("r-2", "<b>query planning handbook</b> right page 2 revised"); err != nil {
				t.Fatal(err)
			}
			if err := m.Remove("l-3"); err != nil {
				t.Fatal(err)
			}
			if err := m.Put("r-10", "<b>index structures</b> fresh right page"); err != nil {
				t.Fatal(err)
			}
			d, err := m.Commit()
			if err != nil {
				t.Fatal(err)
			}

			setCorpusTables(env, s)
			ctx.ApplyCorpusDelta(&CorpusDelta{Added: d.Added, Updated: d.Updated, Removed: d.Removed})
			res2, err := plan.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got := res2.Canonical()

			env2 := corpusEnv(s)
			plan2, err := Compile(prog, env2)
			if err != nil {
				t.Fatal(err)
			}
			ctx2 := NewContext(env2)
			ctx2.Workers = workers
			res3, err := plan2.Execute(ctx2)
			if err != nil {
				t.Fatal(err)
			}
			want := res3.Canonical()

			if got != want {
				t.Fatalf("incremental result differs from scratch:\n%s\nwant:\n%s", got, want)
			}
			if got == before {
				t.Fatal("mutation did not change the result; test corpus too sparse")
			}
			st := ctx.Stats.Snapshot()
			if st.CorpusDeltas != 1 {
				t.Fatalf("CorpusDeltas = %d", st.CorpusDeltas)
			}
			if st.CorpusPriorHits == 0 {
				t.Fatal("no displaced priors were picked up")
			}
			// Counters accumulate across executions; the incremental run's
			// share is the difference from the pre-mutation snapshot.
			reused := st.TuplesReused - base.TuplesReused
			recomputed := st.TuplesRecomputed - base.TuplesRecomputed
			if reused == 0 {
				t.Fatal("no tuples replayed from displaced memos")
			}
			if reused < recomputed {
				t.Fatalf("small delta recomputed more than it reused: reused=%d recomputed=%d",
					reused, recomputed)
			}
		})
	}
}

// TestCorpusDeltaRemovalProjection: a removal-only delta must invalidate
// even tables whose tuples do not reference the removed document — the
// head projection drops the right-side columns, so the stale tuple
// "touches" nothing that changed. This pins the uniform displacement
// rule (doc-touch invalidation would silently keep the stale tuple).
func TestCorpusDeltaRemovalProjection(t *testing.T) {
	prog := alog.MustParse(`
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>) :- R(y), e2(y, t).
Q(s) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
`)
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "cache coherence" matches only through r-0; removing r-0 must
	// remove the projected Q("cache coherence") tuple.
	adds := []struct{ id, src string }{
		{"l-0", "<b>cache coherence</b> left page"},
		{"l-1", "<b>stream systems</b> left page"},
		{"r-0", "<b>cache coherence</b> right page"},
		{"r-1", "<b>stream systems</b> right page"},
	}
	for _, a := range adds {
		if err := w.Add(a.id, a.src); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	env := corpusEnv(s)
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	ctx.EnableDelta()
	res1, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := res1.Canonical(); want == "" {
		t.Fatal("empty base result")
	}

	m, err := s.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("r-0"); err != nil {
		t.Fatal(err)
	}
	d, err := m.Commit()
	if err != nil {
		t.Fatal(err)
	}
	setCorpusTables(env, s)
	ctx.ApplyCorpusDelta(&CorpusDelta{Removed: d.Removed})
	res2, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}

	env2 := corpusEnv(s)
	plan2, err := Compile(prog, env2)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := plan2.Execute(NewContext(env2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Canonical() != res3.Canonical() {
		t.Fatalf("incremental removal result differs from scratch:\n%s\nwant:\n%s",
			res2.Canonical(), res3.Canonical())
	}
	if res2.Canonical() == res1.Canonical() {
		t.Fatal("removed document's projected tuple survived")
	}
}

// TestPlanEditAfterCorpusDeltaAdoptsNoSupersededTable: adoption compares
// contents, and after a corpus delta a table built over a superseded
// document handle must never be handed out, even when the page was
// rewritten with byte-identical text. Two facts keep it so, and each is
// pinned: StructuralEq compares spans by document handle (the rewritten
// page's old and new tables render equally and still differ), and an entry
// ApplyCorpusDelta displaced is never current (no lookup sees it). A plan
// edit evaluated right after the delta then adopts nothing; one evaluated
// after the unchanged plan has re-run adopts. Either way every table the
// cache holds and the result mention current handles only.
func TestPlanEditAfterCorpusDeltaAdoptsNoSupersededTable(t *testing.T) {
	prog := alog.MustParse(corpusJoinSrc)
	next := prog.Clone()
	if err := next.AddConstraint(alog.AttrRef{Pred: "e1", Var: "s"}, "italic-font", "no"); err != nil {
		t.Fatal(err)
	}
	for _, rerun := range []bool{false, true} {
		t.Run(fmt.Sprintf("rerun=%t", rerun), func(t *testing.T) {
			dir := t.TempDir()
			buildCorpusStore(t, dir)
			s, err := store.Open(dir, store.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			env := corpusEnv(s)
			p1, err := Compile(prog, env)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := Compile(next, env)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewContext(env)
			ctx.EnableDelta()
			if _, err := p1.Execute(ctx); err != nil {
				t.Fatal(err)
			}
			oldL := map[NodeID]*compact.Table{}
			for _, c := range CachedTablesForTest(ctx) {
				oldL[c.Node.ID()] = c.Table
			}
			old := map[string]*text.Document{}
			for _, doc := range s.Docs() {
				old[doc.ID()] = doc
			}

			m, err := s.BeginMutation()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Put("l-1", "<b>join order primer</b> left page 1"); err != nil {
				t.Fatal(err)
			}
			d, err := m.Commit()
			if err != nil {
				t.Fatal(err)
			}
			current := map[*text.Document]bool{}
			for _, doc := range s.Docs() {
				current[doc] = true
				if o := old["l-1"]; doc.ID() == "l-1" && (doc == o || doc.Text() != o.Text()) {
					t.Fatalf("l-1 rewritten: same handle %t, same text %t", doc == o, doc.Text() == o.Text())
				}
			}
			setCorpusTables(env, s)
			ctx.ApplyCorpusDelta(&CorpusDelta{Added: d.Added, Updated: d.Updated, Removed: d.Removed})
			ctx.mu.Lock()
			for id := range oldL {
				if e := ctx.lookupLocked(entryKey{mode: fullMode, node: id}); e != nil {
					t.Errorf("%s: a displaced entry is current", e.node.Signature())
				}
			}
			ctx.mu.Unlock()

			if rerun {
				if _, err := p1.Execute(ctx); err != nil {
					t.Fatal(err)
				}
				var rewritten int
				for _, c := range CachedTablesForTest(ctx) {
					if o := oldL[c.Node.ID()]; o != nil && o.String() == c.Table.String() && !o.StructuralEq(c.Table) {
						rewritten++
					}
				}
				if rewritten == 0 {
					t.Error("no table over the rewritten page renders as before yet differs by handle")
				}
			}
			before := ctx.Stats.TablesAdopted
			ctx.RegisterDelta(p1.Root, p2.Root)
			res, err := p2.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if adopted := ctx.Stats.TablesAdopted - before; (adopted > 0) != rerun {
				t.Errorf("%d tables adopted by the edit", adopted)
			}
			want, err := p2.Execute(NewContext(env))
			if err != nil {
				t.Fatal(err)
			}
			if res.Canonical() != want.Canonical() {
				t.Fatalf("edited plan after the delta:\n%s\nwant:\n%s", res.Canonical(), want.Canonical())
			}
			tables := []*compact.Table{res}
			for _, c := range CachedTablesForTest(ctx) {
				tables = append(tables, c.Table)
			}
			for _, tb := range tables {
				for _, tp := range tb.Tuples {
					for _, c := range tp.Cells {
						for _, a := range c.Assigns {
							if !current[a.Span.Doc()] {
								t.Fatalf("a table over superseded page %s is in use:\n%s", a.Span.Doc().ID(), tb)
							}
						}
					}
				}
			}
		})
	}
}
