package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/feature"
	"iflex/internal/text"
)

// refRefineCell is refineCell as it was before the scratch lists, the skip
// rules and the single re-check pass: every pass grows a fresh slice, and
// the re-check of all repeats, up to three rounds, until a round leaves the
// sorted list as it found it.
func refRefineCell(batch *statBatch, docs *docCursor, c compact.Cell, k *feature.Cons, all []*feature.Cons) (compact.Cell, error) {
	c, _, err := refRefineRounds(batch, docs, c, k, all)
	return c, err
}

// refRefineRounds is refRefineCell that also says how many re-check rounds
// it ran: more than one when the first round changed the list.
func refRefineRounds(batch *statBatch, docs *docCursor, c compact.Cell, k *feature.Cons, all []*feature.Cons) (compact.Cell, int, error) {
	as, err := applyConstraint(batch, docs, k, c.Assigns, nil, false)
	if err != nil {
		return compact.Cell{}, 0, err
	}
	rounds := 0
	for rounds < 3 {
		before := sortedAssignments(as)
		for _, kc := range all {
			if as, err = applyConstraint(batch, docs, kc, as, nil, false); err != nil {
				return compact.Cell{}, 0, err
			}
		}
		rounds++
		if slices.Equal(sortedAssignments(as), before) {
			break
		}
	}
	return compact.Cell{Assigns: text.DedupAssignments(as), Expand: c.Expand}, rounds, nil
}

// sortedAssignments returns a sorted copy of as.
func sortedAssignments(as []text.Assignment) []text.Assignment {
	cp := slices.Clone(as)
	text.SortAssignments(cp)
	return cp
}

// intern resolves cons in env as the compiler does: each feature looked up
// by name, each pair interned in env's memo.
func intern(tb testing.TB, env *Env, cons ...alog.Constraint) []*feature.Cons {
	tb.Helper()
	out := make([]*feature.Cons, len(cons))
	for i, k := range cons {
		f, err := env.Features.Lookup(k.Feature)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = env.FeatureMemo.Intern(f, k.Value)
	}
	return out
}

// constrain places k above parent with prior applied before it on k.Attr,
// as the compiler would.
func constrain(tb testing.TB, env *Env, parent Node, k alog.Constraint, prior ...alog.Constraint) *constraintNode {
	return newConstraintNode(env, parent, k.Attr, intern(tb, env, slices.Concat(prior, []alog.Constraint{k})...))
}

// refinePages are small record pages with the mark-up, labels, section
// headers and links the constraint pool below asks about; two of them have
// the same text.
func refinePages() []*text.Document {
	var docs []*text.Document
	for i, src := range []string{
		`<ul><li><b>Query Processing</b> by <i>A. Smith</i></li><li>List: $45.00</li><li>New: $39.50</li></ul>`,
		`<ul><li><b>Query Processing</b> by <i>A. Smith</i></li><li>List: $45.00</li><li>New: $39.50</li></ul>`,
		`<title>Index Structures</title><h2>Second Edition</h2><b>Index Structures</b> <u>second edition</u> List: $120.00 Used: $80.25 New: $99`,
		`Stream Systems, <i>B. Jones and C. Wu</i>. Price: 17 New: 12 <a href="http://books.example/x">More Details</a> <a href="x">here</a>`,
	} {
		docs = append(docs, mustDoc(fmt.Sprintf("r%d", i), src))
	}
	return docs
}

var refinePool = []alog.Constraint{
	{Feature: "bold-font", Value: "yes"}, {Feature: "bold-font", Value: "no"}, {Feature: "bold-font", Value: "distinct-yes"},
	{Feature: "italic-font", Value: "yes"}, {Feature: "italic-font", Value: "no"},
	{Feature: "underlined", Value: "no"}, {Feature: "in-list", Value: "yes"}, {Feature: "in-list", Value: "no"},
	{Feature: "numeric", Value: "yes"}, {Feature: "numeric", Value: "no"}, {Feature: "capitalized", Value: "yes"},
	{Feature: "preceded-by", Value: "List:"}, {Feature: "preceded-by", Value: "New:"},
	{Feature: "max-tokens", Value: "1"}, {Feature: "max-tokens", Value: "3"}, {Feature: "max-length", Value: "12"},
	{Feature: "min-value", Value: "20"}, {Feature: "max-value", Value: "100"},
	// Hereditary by derivation from their declarations (Cons.Hereditary).
	{Feature: "in-first-half", Value: "yes"}, {Feature: "in-first-half", Value: "distinct-yes"},
	{Feature: "capitalized", Value: "distinct-yes"}, {Feature: "link-to-contains", Value: "books"},
	{Feature: "prec-label-contains", Value: "edition"}, {Feature: "prec-label-max-dist", Value: "40"},
}

// randomAssignments draws a list over the pages: whole pages and random
// token-aligned sub-spans, in either mode.
func randomAssignments(r *rand.Rand, docs []*text.Document, n int) []text.Assignment {
	var as []text.Assignment
	for ; n > 0; n-- {
		s := docs[r.Intn(len(docs))].WholeSpan()
		if r.Intn(3) > 0 {
			var subs []text.Span
			text.ContainOf(s).Values(func(v text.Span) bool { subs = append(subs, v); return len(subs) < 200 })
			s = subs[r.Intn(len(subs))]
		}
		if r.Intn(2) == 0 {
			as = append(as, text.ExactOf(s))
		} else {
			as = append(as, text.ContainOf(s))
		}
	}
	return as
}

// freshTables forgets every record table of env's memo and returns a cursor
// over it; the constraint handles it interned stay valid.
func freshTables(env *Env) docCursor {
	env.FeatureMemo.Evict(math.MaxInt64)
	return docCursor{memo: env.FeatureMemo}
}

// resolveBoth interns cons in env and in ref: a handle serves the memo
// that made it only.
func resolveBoth(t *testing.T, env, ref *Env, cons []alog.Constraint) (all, refAll []*feature.Cons) {
	t.Helper()
	return intern(t, env, cons...), intern(t, ref, cons...)
}

// TestRefineCellMatchesReference holds refineCell to its old body on random
// cells and constraint lists: the same cell, with no more Verify or Refine
// calls, and one scratch reused across all calls the way a chunk's worker
// reuses it. Each cell is first refined under the earlier constraints by
// the reference, stage by stage, which is how every cell enters a stage
// (newConstraintNode). Each side reads a fresh memo per trial.
func TestRefineCellMatchesReference(t *testing.T) {
	docs := refinePages()
	env, refEnv := NewEnv(), NewEnv()
	r := rand.New(rand.NewSource(20))
	var sc refineScratch
	changed := 0
	for trial := 0; trial < 3000; trial++ {
		sc.docs = freshTables(env)
		refDocs := &docCursor{memo: freshTables(refEnv).memo}
		c := compact.Cell{Assigns: randomAssignments(r, docs, 1+r.Intn(4)), Expand: r.Intn(2) == 0}
		cons := make([]alog.Constraint, 1+r.Intn(6))
		for i := range cons {
			cons[i] = refinePool[r.Intn(len(refinePool))]
		}
		all, refAll := resolveBoth(t, env, refEnv, cons)
		for st := range refAll[:len(refAll)-1] {
			var b statBatch
			if c, _ = refRefineCell(&b, refDocs, c, refAll[st], refAll[:st+1]); len(c.Assigns) == 0 {
				break
			}
		}
		if len(c.Assigns) == 0 {
			continue
		}
		in := slices.Clone(c.Assigns)
		var wantB, gotB statBatch
		want, werr := refRefineCell(&wantB, refDocs, c, refAll[len(all)-1], refAll)
		got, gerr := refineCell(&gotB, &sc, c, all[len(all)-1], all)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gerr, werr)
		}
		if !slices.Equal(got.Assigns, want.Assigns) || got.Expand != want.Expand {
			t.Fatalf("trial %d: %v under %v\n got %v\nwant %v", trial, c, cons, got, want)
		}
		if gotB.VerifyCalls > wantB.VerifyCalls || gotB.RefineCalls > wantB.RefineCalls {
			t.Fatalf("trial %d: calls %+v, reference %+v", trial, gotB, wantB)
		}
		if !slices.Equal(c.Assigns, in) {
			t.Fatalf("trial %d: refineCell wrote into its input cell", trial)
		}
		if !slices.Equal(got.Assigns, in) {
			changed++
		}
	}
	t.Logf("%d of 3000 cells changed in their last stage", changed)
	if changed < 500 {
		t.Fatalf("only %d of 3000 cells were refined at all", changed)
	}
}

// TestRefineCellTrustsRefinedCells holds the one-pass trusted path to the
// naive body where its precondition holds: each random cell grows stage by
// stage from an empty prior, the way a run carries it, and at every stage
// the trusted call must return the reference cell with no more Verify or
// Refine calls. The saving is floored so that the settled shortcut and the
// hereditary skip are seen to fire, and so is the number of stages where
// the reference's first re-check round changed the list and it ran a
// second: those are the stages where one pass is shown to reach the
// reference's result.
func TestRefineCellTrustsRefinedCells(t *testing.T) {
	docs := refinePages()
	env, refEnv := NewEnv(), NewEnv()
	r := rand.New(rand.NewSource(21))
	var sc refineScratch
	var stages, repeated int
	var wantCalls, gotCalls int64
	for cell := 0; cell < 20000; cell++ {
		sc.docs = freshTables(env)
		refDocs := &docCursor{memo: freshTables(refEnv).memo}
		c := compact.Cell{Assigns: randomAssignments(r, docs, 1+r.Intn(4)), Expand: r.Intn(2) == 0}
		cons := make([]alog.Constraint, 1+r.Intn(6))
		for i := range cons {
			cons[i] = refinePool[r.Intn(len(refinePool))]
		}
		all, refAll := resolveBoth(t, env, refEnv, cons)
		for st := range all {
			var wantB, gotB statBatch
			want, rounds, werr := refRefineRounds(&wantB, refDocs, c, refAll[st], refAll[:st+1])
			got, gerr := refineCell(&gotB, &sc, c, all[st], all[:st+1])
			if werr != nil || gerr != nil {
				t.Fatalf("cell %d stage %d: error %v, reference %v", cell, st, gerr, werr)
			}
			if rounds > 1 {
				repeated++
			}
			if !slices.Equal(got.Assigns, want.Assigns) || got.Expand != want.Expand {
				t.Fatalf("cell %d stage %d: %v under %v\n got %v\nwant %v", cell, st, c, cons[:st+1], got, want)
			}
			if gotB.VerifyCalls > wantB.VerifyCalls || gotB.RefineCalls > wantB.RefineCalls {
				t.Fatalf("cell %d stage %d: calls %+v, reference %+v", cell, st, gotB, wantB)
			}
			stages++
			wantCalls += wantB.VerifyCalls + wantB.RefineCalls
			gotCalls += gotB.VerifyCalls + gotB.RefineCalls
			if c = want; len(c.Assigns) == 0 {
				break
			}
		}
	}
	t.Logf("%d stages: %d Verify/Refine calls, reference %d; the reference re-checked twice in %d", stages, gotCalls, wantCalls, repeated)
	if gotCalls*100 > wantCalls*55 {
		t.Fatalf("trusted path made %d calls, reference %d: want at least 45%% fewer", gotCalls, wantCalls)
	}
	if repeated < 100 {
		t.Fatalf("the reference's first round changed the list in only %d of %d stages: one pass is shown on too few", repeated, stages)
	}
}

// beforeFeature is a user feature whose spans are not token-aligned:
// before(s) = label holds when the label does not occur in s, and Refine
// keeps the part of s before its first occurrence, space included.
type beforeFeature struct{}

func (beforeFeature) Name() string       { return "before" }
func (beforeFeature) Kind() feature.Kind { return feature.KindParametric }
func (beforeFeature) Verify(s text.Span, v string) (bool, error) {
	return !strings.Contains(s.Text(), v), nil
}
func (beforeFeature) Refine(s text.Span, v string) ([]text.Assignment, error) {
	i := strings.Index(s.Text(), v)
	switch {
	case i < 0:
		return []text.Assignment{text.ContainOf(s)}, nil
	case i == 0:
		return nil, nil
	}
	return []text.Assignment{text.ContainOf(s.Sub(s.Start(), s.Start()+i))}, nil
}

// declaredBold is bold-font under another name, as a deployment would
// register it: a user feature that declares f = v hereditary by a method,
// and counts how often it is asked.
type declaredBold struct {
	feature.Feature
	asked *atomic.Int32
}

func (declaredBold) Name() string { return "declared-bold" }
func (f declaredBold) Hereditary(v string) bool {
	f.asked.Add(1)
	return v == feature.Yes
}

// TestUserHereditaryAskedOnce: a user feature's Hereditary(v) is asked when
// the compiler interns f = v, once per handle: compiling the program again
// and evaluating it in fresh contexts at one and two workers asks nothing
// more. The tables are the built-in's.
func TestUserHereditaryAskedOnce(t *testing.T) {
	var asked atomic.Int32
	env := figure2Env()
	bold, err := env.Features.Lookup("bold-font")
	if err != nil {
		t.Fatal(err)
	}
	env.Features.Register(declaredBold{bold, &asked})
	want, err := Run(alog.MustParse(figure2Src), figure2Env())
	if err != nil {
		t.Fatal(err)
	}
	prog := alog.MustParse(strings.Replace(figure2Src, "bold-font(s)", "declared-bold(s)", 1))
	for range 2 {
		plan, err := Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			ctx := NewContext(env)
			ctx.Workers = workers
			got, err := plan.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got.Canonical() != want.Canonical() || ctx.Stats.ConstraintStages == 0 {
				t.Fatalf("workers=%d, %d stages:\n%s\nbold-font gives\n%s", workers, ctx.Stats.ConstraintStages, got, want)
			}
		}
	}
	if n := asked.Load(); n != 1 {
		t.Fatalf("Hereditary asked %d times, want once", n)
	}
}

// TestRefineCellRechecksUnalignedSpans: on the trusted path a hereditary
// constraint lets only token-aligned spans through uncalled. Here before
// narrows a cell already refined under italic-font = no to "Query
// Processing " — trailing space included, so not aligned — which the
// re-check of italic-font = no must still narrow to "Query Processing",
// as the reference does. The reference then re-checks the narrowed span in
// a second round, which the one pass does without.
func TestRefineCellRechecksUnalignedSpans(t *testing.T) {
	env, refEnv := NewEnv(), NewEnv()
	env.Features.Register(beforeFeature{})
	refEnv.Features.Register(beforeFeature{})
	all, refAll := resolveBoth(t, env, refEnv, []alog.Constraint{{Feature: "italic-font", Value: "no"}, {Feature: "before", Value: "by"}})
	c := compact.Cell{Assigns: []text.Assignment{text.ContainOf(mustDoc("r", "Query Processing by A. Smith").WholeSpan())}}
	sc := refineScratch{docs: docCursor{memo: env.FeatureMemo}}
	var wantB, gotB statBatch
	want, werr := refRefineCell(&wantB, &docCursor{memo: refEnv.FeatureMemo}, c, refAll[1], refAll)
	got, gerr := refineCell(&gotB, &sc, c, all[1], all)
	if werr != nil || gerr != nil {
		t.Fatalf("error %v, reference %v", gerr, werr)
	}
	if !slices.Equal(got.Assigns, want.Assigns) || len(got.Assigns) != 1 || got.Assigns[0].Span.Text() != "Query Processing" {
		t.Fatalf("got %v, reference %v: want contain(\"Query Processing\")", got, want)
	}
	if calls, ref := gotB.VerifyCalls+gotB.RefineCalls, wantB.VerifyCalls+wantB.RefineCalls; calls >= ref {
		t.Fatalf("trusted path made %d calls, reference %d: the aligned re-check was not skipped", calls, ref)
	}
}

// TestRefineCellTrustedKeepsSuperset breaks the precondition on purpose:
// raw random cells, never refined under the earlier constraints, go
// through the trusted path. Skipping a re-check may keep more values but
// never fewer, so every value of the reference cell must be a value of
// the trusted one.
func TestRefineCellTrustedKeepsSuperset(t *testing.T) {
	docs := refinePages()
	env, refEnv := NewEnv(), NewEnv()
	r := rand.New(rand.NewSource(22))
	var sc refineScratch
	differ := 0
	for trial := 0; trial < 20000; trial++ {
		sc.docs = freshTables(env)
		refDocs := &docCursor{memo: freshTables(refEnv).memo}
		c := compact.Cell{Assigns: randomAssignments(r, docs, 1+r.Intn(4)), Expand: r.Intn(2) == 0}
		cons := make([]alog.Constraint, 2+r.Intn(5))
		for i := range cons {
			cons[i] = refinePool[r.Intn(len(refinePool))]
		}
		all, refAll := resolveBoth(t, env, refEnv, cons)
		var wantB, gotB statBatch
		want, werr := refRefineCell(&wantB, refDocs, c, refAll[len(all)-1], refAll)
		got, gerr := refineCell(&gotB, &sc, c, all[len(all)-1], all)
		if werr != nil || gerr != nil {
			t.Fatalf("trial %d: error %v, reference %v", trial, gerr, werr)
		}
		if slices.Equal(got.Assigns, want.Assigns) {
			continue
		}
		differ++
		for _, w := range want.Assigns {
			w.Values(func(v text.Span) bool {
				if !slices.ContainsFunc(got.Assigns, func(g text.Assignment) bool { return g.Covers(v) }) {
					t.Fatalf("trial %d: %v under %v lost value %q of %v\n got %v\nwant %v", trial, c, cons, v.Text(), w, got, want)
				}
				return true
			})
		}
	}
	t.Logf("%d of 20000 cells differ from the reference", differ)
	if differ < 2000 {
		t.Fatalf("only %d of 20000 raw cells kept more than the reference: the test shows nothing", differ)
	}
}

// TestRefineCellSelfStableSkipsRecheck: on the trusted path a self-stable
// constraint k over hereditary priors makes only its own first pass, one
// call per entering assignment, and still returns the reference cell: what
// k returned needs no re-check under k (Cons.SelfStable), and the priors
// pass its token-aligned spans uncalled. Each cell is first refined under
// the priors stage by stage, as a run carries it. The draw is floored so
// that k returns spans the reference re-checks.
func TestRefineCellSelfStableSkipsRecheck(t *testing.T) {
	docs := refinePages()
	env, refEnv := NewEnv(), NewEnv()
	r := rand.New(rand.NewSource(23))
	var sc refineScratch
	hereditary := []alog.Constraint{
		{Feature: "bold-font", Value: "yes"}, {Feature: "italic-font", Value: "no"}, {Feature: "in-list", Value: "yes"},
		{Feature: "max-tokens", Value: "3"}, {Feature: "capitalized", Value: "yes"}, {Feature: "in-first-half", Value: "yes"},
	}
	stable := []alog.Constraint{
		{Feature: "numeric", Value: "yes"}, {Feature: "numeric", Value: "no"}, {Feature: "bold-font", Value: "distinct-yes"},
		{Feature: "preceded-by", Value: "List:"}, {Feature: "preceded-by", Value: "New:"}, {Feature: "min-value", Value: "20"},
		{Feature: "max-value", Value: "100"}, {Feature: "max-length", Value: "12"}, {Feature: "in-list", Value: "no"},
	}
	rechecked := 0
	for trial := 0; trial < 5000; trial++ {
		sc.docs = freshTables(env)
		refDocs := &docCursor{memo: freshTables(refEnv).memo}
		c := compact.Cell{Assigns: randomAssignments(r, docs, 1+r.Intn(4)), Expand: r.Intn(2) == 0}
		cons := make([]alog.Constraint, r.Intn(3), 3)
		for i := range cons {
			cons[i] = hereditary[r.Intn(len(hereditary))]
		}
		cons = append(cons, stable[r.Intn(len(stable))])
		all, refAll := resolveBoth(t, env, refEnv, cons)
		if k := all[len(all)-1]; !k.SelfStable {
			t.Fatalf("%v is not self-stable", cons[len(cons)-1])
		}
		for st := range refAll[:len(refAll)-1] {
			var b statBatch
			if c, _ = refRefineCell(&b, refDocs, c, refAll[st], refAll[:st+1]); len(c.Assigns) == 0 {
				break
			}
		}
		if len(c.Assigns) == 0 {
			continue
		}
		var wantB, gotB statBatch
		want, werr := refRefineCell(&wantB, refDocs, c, refAll[len(all)-1], refAll)
		got, gerr := refineCell(&gotB, &sc, c, all[len(all)-1], all)
		if werr != nil || gerr != nil {
			t.Fatalf("trial %d: error %v, reference %v", trial, gerr, werr)
		}
		if !slices.Equal(got.Assigns, want.Assigns) || got.Expand != want.Expand {
			t.Fatalf("trial %d: %v under %v\n got %v\nwant %v", trial, c, cons, got, want)
		}
		if calls := gotB.VerifyCalls + gotB.RefineCalls; calls != int64(len(c.Assigns)) {
			t.Fatalf("trial %d: %v under %v made %d calls, want %d (k's first pass)", trial, c, cons, calls, len(c.Assigns))
		}
		if wantB.VerifyCalls+wantB.RefineCalls > int64(len(c.Assigns)) {
			rechecked++
		}
	}
	t.Logf("%d of 5000 cells had something to re-check", rechecked)
	if rechecked < 1000 {
		t.Fatalf("only %d cells had anything to re-check: the test shows nothing", rechecked)
	}
}

// TestProjectIdentitySharesTuples: a projection of every column onto
// itself hands out its input's tuples, and a constraint above it — which
// replaces cells — leaves the projection's input as it was.
func TestProjectIdentitySharesTuples(t *testing.T) {
	env := NewEnv()
	env.AddDocTable("pages", "x", refinePages())
	from := newFromNode(env, newScanNode(env, "pages", []string{"x"}), "x", "t")
	same := newProjectNode(env, from, []string{"x", "t"}, []string{"x", "title"})
	swapped := newProjectNode(env, from, []string{"t", "x"}, []string{"t", "x"})
	top := constrain(t, env, same, alog.Constraint{Feature: "bold-font", Attr: "title", Value: "yes"})
	ctx := NewContext(env)
	in, err := Eval(ctx, from)
	if err != nil {
		t.Fatal(err)
	}
	before := in.String()
	proj, err := Eval(ctx, same)
	if err != nil {
		t.Fatal(err)
	}
	if &proj.Tuples[0] != &in.Tuples[0] || !slices.Equal(proj.Cols, []string{"x", "title"}) {
		t.Fatalf("identity projection copied its rows or lost its header: cols %v", proj.Cols)
	}
	if cap(proj.Tuples) != len(proj.Tuples) {
		t.Fatal("shared rows must not leave room to append into")
	}
	out, err := Eval(ctx, top)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() == proj.String() {
		t.Fatal("the constraint refined nothing; the test shows nothing")
	}
	if in.String() != before {
		t.Fatalf("the constraint above the projection changed the projection's input:\n%s\nwas\n%s", in, before)
	}
	sw, err := Eval(ctx, swapped)
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range sw.Tuples {
		if len(tp.Cells) != 2 || cap(tp.Cells) != 2 || !tp.CellsStructuralEq(compact.Tuple{Cells: []compact.Cell{in.Tuples[i].Cells[1], in.Tuples[i].Cells[0]}}, []int{0, 1}) {
			t.Fatalf("row %d of the reordering projection: %v from %v", i, tp, in.Tuples[i])
		}
	}
}

// TestRunOverUnappliedParent: a constraint node whose earlier constraints
// its parent has not applied — a trial inserted above a
// projection, say — must not trust its input as refined under
// them. For every pair of pool constraints its table is the run's that
// applies them first.
func TestRunOverUnappliedParent(t *testing.T) {
	for _, k1 := range refinePool {
		for _, k2 := range refinePool {
			if k1 == k2 {
				continue // one node key: the pair is a single constraint
			}
			c1, c2 := k1, k2
			c1.Attr, c2.Attr = "title", "title"
			env := NewEnv()
			env.AddDocTable("pages", "x", refinePages())
			from := newFromNode(env, newScanNode(env, "pages", []string{"x"}), "x", "t")
			same := newProjectNode(env, from, []string{"x", "t"}, []string{"x", "title"})
			over := constrain(t, env, same, c2, c1)
			run := constrain(t, env, constrain(t, env, same, c1), c2, c1)
			if over.parent != same || run.parent != same || len(run.cons) != 2 {
				t.Fatalf("%v over %v: built %s and %s", c2, c1, over.Signature(), run.Signature())
			}
			ctx := NewContext(env)
			got, err := Eval(ctx, over)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Eval(ctx, run)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("%v over %v above a projection:\n%s\nthe run computes\n%s", c2, c1, got, want)
			}
		}
	}
}

// runCornerSrc has three constraints on p already; the test adds two more.
const runCornerSrc = `
houses(x, <p>, <a>) :- housePages(x), extractHouses(x, p, a).
Q(x, p, a) :- houses(x, p, a), p > 100000.
extractHouses(x, p, a) :- from(x, p), from(x, a), numeric(p) = yes, numeric(a) = yes,
                          bold-font(p) = no, max-tokens(p) = 1.
`

// TestRunResumesBehindTrial is the corner a run that only followed its
// RegisterDelta link got wrong: two answers on one attribute are folded
// into the program in one step, and a trial has already evaluated the first
// of them. The run must find the trial's entry under its own prefix
// signature and resume behind it, not behind the shorter base plan the link
// names: it then computes its last stage once per tuple the trial's
// four-stage run let through, and nothing else.
func TestRunResumesBehindTrial(t *testing.T) {
	p := alog.AttrRef{Pred: "extractHouses", Var: "p"}
	env := chaosEnv(40, 4, nil)
	ctx := NewContext(env)
	ctx.EnableDelta()
	compile := func(extra ...[2]string) *Plan {
		prog := alog.MustParse(runCornerSrc)
		for _, c := range extra {
			if err := prog.AddConstraint(p, c[0], c[1]); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	execute := func(ctx *Context, plan *Plan) *compact.Table {
		tbl, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	first, second := [2]string{"preceded-by", "Price:"}, [2]string{"min-value", "400000"}
	base := compile()
	execute(ctx, base)
	trial := compile(first)
	ctx.RegisterDelta(base.Root, trial.Root)
	execute(ctx, trial)
	next := compile(first, second)
	ctx.ResetDelta()
	ctx.RegisterDelta(base.Root, next.Root)
	s0 := ctx.Stats.ConstraintStages
	tbl := execute(ctx, next)
	stages := ctx.Stats.ConstraintStages - s0
	if want := execute(NewContext(env), next); tbl.String() != want.String() {
		t.Fatalf("the resumed run's table differs from a cold evaluation's\nresumed:\n%s\ncold:\n%s", tbl, want)
	}
	through := -1
	resumed := false
	for _, o := range ctx.TraceOps() {
		switch o.Stages {
		case 4:
			through = o.Tuples
		case 5:
			resumed = true
			if o.ResumedFrom != 4 {
				t.Fatalf("the five-stage run resumed behind %d stages, want 4", o.ResumedFrom)
			}
		}
	}
	if !resumed || through <= 0 {
		t.Fatalf("the trace has no five-stage run, or a four-stage run that let %d tuples through", through)
	}
	if stages != int64(through) {
		t.Fatalf("%d stages computed; the four-stage run let %d tuples through, one stage each", stages, through)
	}
}
