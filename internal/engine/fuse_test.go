package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/fault"
	"iflex/internal/text"
)

// optDocs builds a small two-sided corpus whose documents carry bold and
// italic segments (so both font constraints have matches).
func optDocs(prefix string, n int, r *rand.Rand) []docPair {
	words := []string{"query", "join", "index", "stream", "cache", "log"}
	var out []docPair
	for i := 0; i < n; i++ {
		k := 1 + r.Intn(3)
		var toks []string
		for j := 0; j < k; j++ {
			toks = append(toks, words[r.Intn(len(words))])
		}
		src := fmt.Sprintf("<b>%s</b> <i>tag%d</i> trailer", strings.Join(toks, " "), r.Intn(4))
		out = append(out, docPair{id: fmt.Sprintf("%s%d", prefix, i), src: src})
	}
	return out
}

type docPair struct{ id, src string }

// fusionDefeatSrc lists a column-disjoint constraint between the join
// atoms and the similarity literal, so OrderBody places the constraint
// first, right over the cross product: the fold must put the similarity
// ahead of it to fuse the two into a ⋈~.
const fusionDefeatSrc = `
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>, <u>) :- R(y), e2(y, t), e2u(y, u).
Q(s, t) :- a(x, s), b(y, t, u), italic-font(u) = distinct-yes, similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
e2u(y, u) :- from(y, u), italic-font(u) = distinct-yes.
`

// fusedSrc is the same query with the literals in the order the plan
// evaluates them.
const fusedSrc = `
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>, <u>) :- R(y), e2(y, t), e2u(y, u).
Q(s, t) :- a(x, s), b(y, t, u), similar(s, t), italic-font(u) = distinct-yes.
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
e2u(y, u) :- from(y, u), italic-font(u) = distinct-yes.
`

func buildOptEnv(r *rand.Rand, n int) *Env {
	env := NewEnv()
	env.AddDocTable("L", "x", docsOf(optDocs("l", n, r)))
	env.AddDocTable("R", "y", docsOf(optDocs("r", n, r)))
	return env
}

// fusedAndNaive builds two Envs over the same n+n documents: one as
// buildOptEnv has it, and one whose p-functions are opaque, so that no
// plan compiled against it fuses a ⋈~.
func fusedAndNaive(seed int64, n int) (fused, naive *Env) {
	return buildOptEnv(rand.New(rand.NewSource(seed)), n), opaqueEnv(buildOptEnv(rand.New(rand.NewSource(seed)), n))
}

func docsOf(pairs []docPair) []*text.Document {
	var out []*text.Document
	for _, p := range pairs {
		out = append(out, mustDoc(p.id, p.src))
	}
	return out
}

// compileSrc compiles src against env.
func compileSrc(t *testing.T, src string, env *Env) *Plan {
	t.Helper()
	plan, err := Compile(alog.MustParse(src), env)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestOptimizerFusionRescue: the fold puts the declared similarity ahead
// of the column-disjoint constraint listed before it and fuses it with the
// cross product, so the permuted program compiles to the plan of the one
// listing its literals in evaluation order — at 8+8 documents and at 3+3,
// since the rule reads plan structure only — and computes the table of the
// unfused plan, at Workers 1 and 8.
func TestOptimizerFusionRescue(t *testing.T) {
	for _, docs := range []int{8, 3} {
		t.Run(fmt.Sprintf("%d+%d", docs, docs), func(t *testing.T) {
			env, naiveEnv := fusedAndNaive(11, docs)
			plan := compileSrc(t, fusionDefeatSrc, env)
			ordered := compileSrc(t, fusedSrc, env)
			if got, want := PlanString(plan.Root), PlanString(ordered.Root); got != want || !strings.Contains(got, "⋈~") {
				t.Fatalf("permuted program's plan:\n%s\nin evaluation order:\n%s", got, want)
			}
			naive := compileSrc(t, fusionDefeatSrc, naiveEnv)
			if strings.Contains(PlanString(naive.Root), "⋈~") {
				t.Fatalf("an opaque similarity fused:\n%s", PlanString(naive.Root))
			}
			want, err := naive.Execute(NewContext(naiveEnv))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				ctx := NewContext(env)
				ctx.Workers = workers
				got, err := plan.Execute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got.Canonical() != want.Canonical() {
					t.Fatalf("workers %d: fused result differs:\nfused:\n%s\nnaive:\n%s",
						workers, got.Canonical(), want.Canonical())
				}
			}
		})
	}
}

// TestRunOptimizes: Run executes the plan Compile builds, in which the
// similarity of a literal-permuted program is fused. The fused join
// decides the declared similarity on token records and never calls its
// Fn; with the declaration withdrawn, σ over × calls Fn for every value
// pair of the cross product. Both tables are the hand-ordered program's.
func TestRunOptimizes(t *testing.T) {
	const docs = 8
	var calls atomic.Int64
	counted := func() *Env {
		env := buildOptEnv(rand.New(rand.NewSource(11)), docs)
		pf := env.Funcs["similar"]
		sim := pf.Fn
		pf.Fn = func(args []text.Span) (bool, error) {
			calls.Add(1)
			return sim(args)
		}
		env.Funcs["similar"] = pf
		return env
	}
	env := counted()
	want, err := Run(alog.MustParse(fusedSrc), env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(alog.MustParse(fusionDefeatSrc), env)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("similar called %d times; the fused join decides it on token records", n)
	}
	if got.Canonical() != want.Canonical() {
		t.Fatalf("permuted program's table differs from the hand-ordered one's:\n%s\nvs\n%s", got.Canonical(), want.Canonical())
	}
	naive, err := Run(alog.MustParse(fusionDefeatSrc), opaqueEnv(counted()))
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n < docs*docs {
		t.Fatalf("similar called %d times; σ over × calls it for each of the %d pairs of the cross product", n, docs*docs)
	}
	if naive.Canonical() != want.Canonical() {
		t.Fatalf("σ over ×'s table differs from the fused one's:\n%s\nvs\n%s", naive.Canonical(), want.Canonical())
	}
}

// TestOptimizerDifferentialRandom: fused and unfused plans of both
// programs agree byte for byte over randomized corpora, with and without a
// worker pool.
func TestOptimizerDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		env, naiveEnv := fusedAndNaive(r.Int63(), 2+r.Intn(8))
		for _, src := range []string{fusionDefeatSrc, fusedSrc} {
			want, err := compileSrc(t, src, naiveEnv).Execute(NewContext(naiveEnv))
			if err != nil {
				t.Fatal(err)
			}
			plan := compileSrc(t, src, env)
			for _, workers := range []int{1, 8} {
				ctx := NewContext(env)
				ctx.Workers = workers
				got, err := plan.Execute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got.Canonical() != want.Canonical() {
					t.Fatalf("trial %d workers %d: fused differs\nfused:\n%s\nnaive:\n%s",
						trial, workers, got.Canonical(), want.Canonical())
				}
			}
		}
	}
}

// TestOptimizerCSE: equal subplans are one node across two compiles, and a
// refined program's plan shares with the base plan everything the
// refinement left alone.
func TestOptimizerCSE(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	env := buildOptEnv(r, 6)
	prog := alog.MustParse(fusionDefeatSrc)
	p1, p2 := compileSrc(t, fusionDefeatSrc, env), compileSrc(t, fusionDefeatSrc, env)
	if p1.Root != p2.Root {
		t.Fatal("separate compilations of one program built separate roots")
	}
	next := prog.Clone()
	if err := next.AddConstraint(alog.AttrRef{Pred: "e1", Var: "s"}, "italic-font", "no"); err != nil {
		t.Fatal(err)
	}
	p3, err := Compile(next, env)
	if err != nil {
		t.Fatal(err)
	}
	mine := map[Node]bool{}
	var collect func(n Node)
	collect = func(n Node) {
		mine[n] = true
		for _, c := range n.Children() {
			collect(c)
		}
	}
	collect(p1.Root)
	shared, fresh := 0, 0
	var count func(n Node)
	count = func(n Node) {
		if mine[n] {
			shared++
			return
		}
		fresh++
		for _, c := range n.Children() {
			count(c)
		}
	}
	count(p3.Root)
	if shared == 0 || fresh == 0 || fresh >= CountNodes(p1.Root) {
		t.Fatalf("refined plan: %d subtrees shared with the base plan, %d nodes new of %d", shared, fresh, CountNodes(p1.Root))
	}
}

// TestOptimizerDeltaLockstep: two successive plan versions of the fused
// program (one added constraint apart) delta-link — the second replays
// tuples or adopts tables unrun — and the delta-evaluated table is the one
// a fresh context computes.
func TestOptimizerDeltaLockstep(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	env := buildOptEnv(r, 8)
	prog := alog.MustParse(fusionDefeatSrc)
	p1, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	next := prog.Clone()
	if err := next.AddConstraint(alog.AttrRef{Pred: "e1", Var: "s"}, "bold-font", "distinct-yes"); err != nil {
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
	ctx.RegisterDelta(p1.Root, p2.Root)
	got, err := p2.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.TuplesReused+ctx.Stats.TablesAdopted == 0 {
		t.Fatal("the fused plan versions did not delta-link (no tuples reused, no table adopted)")
	}
	want, err := p2.Execute(NewContext(env))
	if err != nil {
		t.Fatal(err)
	}
	if got.Canonical() != want.Canonical() {
		t.Fatalf("delta-evaluated plan differs:\n%s\nvs\n%s", got.Canonical(), want.Canonical())
	}
}

// TestOptimizerQuarantineCommute: per-document fault quarantine and
// similarity fusion commute. The injector dooms documents purely by
// (seed, site, doc), so which doomed documents actually quarantine depends
// on which p-function calls the plan makes: the fused join probes exactly
// the token-sharing pairs — a subset of the naive cross product's calls,
// and precisely the pairs that could ever survive the join. Hence the fused
// run's quarantine set is a subset of the unfused run's, the difference
// only ever contains documents that contribute nothing to the result, and
// the surviving results are byte-identical — at any worker count.
func TestOptimizerQuarantineCommute(t *testing.T) {
	exec := func(fuse bool, workers int) (string, map[string]bool) {
		env, naiveEnv := fusedAndNaive(71, 8)
		if !fuse {
			env = naiveEnv
		}
		inj := fault.New(42, fault.Rule{Site: "pfunc", Mode: fault.ModeError, Num: 1, Den: 8})
		env.FaultHook = inj.Hook()
		plan := compileSrc(t, fusionDefeatSrc, env)
		ctx := NewContext(env)
		ctx.Workers = workers
		res, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		docs := map[string]bool{}
		for _, d := range ctx.QuarantinedDocs() {
			docs[d] = true
		}
		return res.Canonical(), docs
	}
	naiveRes, naiveQ := exec(false, 1)
	for _, workers := range []int{1, 8} {
		res, q := exec(true, workers)
		if naiveRes != res {
			t.Fatalf("workers=%d: quarantined results differ:\nfused:\n%s\nnaive:\n%s",
				workers, res, naiveRes)
		}
		for d := range q {
			if !naiveQ[d] {
				t.Fatalf("workers=%d: the fused run quarantined %s, which the unfused run did not", workers, d)
			}
		}
	}
	// Determinism: the fused plan's quarantine set is identical across
	// worker counts.
	_, q1 := exec(true, 1)
	_, q8 := exec(true, 8)
	if len(q1) != len(q8) {
		t.Fatalf("fused quarantine sets differ across workers: %d vs %d", len(q1), len(q8))
	}
	for d := range q1 {
		if !q8[d] {
			t.Fatalf("doc %s quarantined at workers=1 but not workers=8", d)
		}
	}
}
