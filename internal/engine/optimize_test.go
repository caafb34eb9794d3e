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
// atoms and the similarity literal, so the compiler's greedy literal
// placement puts the constraint first and its adjacency-only fusion
// cannot fire: the compiled plan is σ~ over σ over a plain cross
// product. The optimizer must rescue it.
const fusionDefeatSrc = `
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>, <u>) :- R(y), e2(y, t), e2u(y, u).
Q(s, t) :- a(x, s), b(y, t, u), italic-font(u) = distinct-yes, similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
e2u(y, u) :- from(y, u), italic-font(u) = distinct-yes.
`

// fusedSrc is the same query with the literals in the fusion-friendly
// order — the shape the compiler already handles.
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

func docsOf(pairs []docPair) []*text.Document {
	var out []*text.Document
	for _, p := range pairs {
		out = append(out, mustDoc(p.id, p.src))
	}
	return out
}

// TestOptimizerFusionRescue: the optimizer hoists the blockable
// similarity past the column-disjoint constraint, fuses it with the
// cross product, and sinks the constraint into the join side — and the
// result stays byte-identical to the unoptimized plan. The rule fires
// wherever it is legal, so a 3+3-document corpus rescues to the same
// shape as an 8+8 one.
func TestOptimizerFusionRescue(t *testing.T) {
	for _, docs := range []int{8, 3} {
		t.Run(fmt.Sprintf("%d+%d", docs, docs), func(t *testing.T) {
			env := buildOptEnv(rand.New(rand.NewSource(11)), docs)
			plain, err := Compile(alog.MustParse(fusionDefeatSrc), env)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(PlanString(plain.Root), "⋈~") {
				t.Fatalf("compiled plan unexpectedly fused already:\n%s", PlanString(plain.Root))
			}
			opt := OptimizePlan(plain, env, OptOptions{})
			var fused, pushed bool
			for _, f := range opt.Opt.Fired {
				switch f.Rule {
				case "fuse-simjoin":
					fused = true
				case "pushdown":
					pushed = true
				}
			}
			if !fused || !pushed {
				t.Fatalf("expected fuse-simjoin and a pushdown below the join, got %+v\n%s",
					opt.Opt.Fired, PlanString(opt.Root))
			}

			// The rescued plan must match the hand-ordered program's plan shape.
			ordered, err := Compile(alog.MustParse(fusedSrc), env)
			if err != nil {
				t.Fatal(err)
			}
			orderedOpt := OptimizePlan(ordered, env, OptOptions{})
			if PlanString(opt.Root) != PlanString(orderedOpt.Root) {
				t.Fatalf("rescued plan differs from fusion-friendly ordering:\nrescued:\n%s\nordered:\n%s",
					PlanString(opt.Root), PlanString(orderedOpt.Root))
			}

			want, err := plain.Execute(NewContext(env))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				ctx := NewContext(env)
				ctx.Workers = workers
				got, err := opt.Execute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got.Canonical() != want.Canonical() {
					t.Fatalf("workers %d: optimized result differs:\nopt:\n%s\nplain:\n%s",
						workers, got.Canonical(), want.Canonical())
				}
				// The pushdown rebuilt the fused join over the sunk
				// constraint; the fuse-simjoin tag must follow it.
				tree, err := opt.Explain(ctx)
				if err != nil {
					t.Fatal(err)
				}
				var tagged bool
				for _, line := range strings.Split(tree, "\n") {
					if strings.Contains(line, "⋈~[") && strings.Contains(line, " rows ") {
						tagged = strings.Contains(line, "«fuse-simjoin»")
					}
				}
				if !tagged {
					t.Fatalf("workers %d: the ⋈~ line carries no «fuse-simjoin» tag:\n%s", workers, tree)
				}
			}
		})
	}
}

// TestRunOptimizes: Run rewrites the plan it compiles. A blockable
// p-function that declares no token similarity is called once per
// candidate value pair, so the fused join a literal-permuted program is
// rescued to calls it for fewer pairs than the cross product has, and the
// table is the hand-ordered program's.
func TestRunOptimizes(t *testing.T) {
	const docs = 8
	env := buildOptEnv(rand.New(rand.NewSource(11)), docs)
	var calls atomic.Int64
	sim := env.Funcs["similar"].Fn
	env.Funcs["similar"] = PFunc{Fn: func(args []text.Span) (bool, error) {
		calls.Add(1)
		return sim(args)
	}, Blockable: true}

	got, err := Run(alog.MustParse(fusionDefeatSrc), env)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n == 0 || n >= docs*docs {
		t.Fatalf("similar called %d times; the fused join calls it for fewer than the %d pairs of the cross product", n, docs*docs)
	}
	want, err := Run(alog.MustParse(fusedSrc), env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Canonical() != want.Canonical() {
		t.Fatalf("permuted program's table differs from the hand-ordered one's:\n%s\nvs\n%s", got.Canonical(), want.Canonical())
	}
}

// TestOptimizerDifferentialRandom: optimized and unoptimized plans agree
// byte for byte over randomized corpora, with and without a worker pool.
func TestOptimizerDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		env := buildOptEnv(r, 2+r.Intn(8))
		for _, src := range []string{fusionDefeatSrc, fusedSrc} {
			prog := alog.MustParse(src)
			plain, err := Compile(prog, env)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Execute(NewContext(env))
			if err != nil {
				t.Fatal(err)
			}
			opt := OptimizePlan(plain, env, OptOptions{})
			for _, workers := range []int{1, 8} {
				ctx := NewContext(env)
				ctx.Workers = workers
				got, err := opt.Execute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got.Canonical() != want.Canonical() {
					t.Fatalf("trial %d workers %d: optimized differs\nopt:\n%s\nplain:\n%s",
						trial, workers, got.Canonical(), want.Canonical())
				}
			}
		}
	}
}

// TestOptimizerConjunctOrder: a cheap comparison listed after an
// expensive constraint bubbles below it when their columns are disjoint.
func TestOptimizerConjunctOrder(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	env := buildOptEnv(r, 6)
	prog := alog.MustParse(`
a(x, <s>, <u>, <w>) :- L(x), e1(x, s), e3(x, u), e3(x, w).
Q(s) :- a(x, s, u, w), bold-font(s) = distinct-yes, u < w.
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e3(x, u) :- from(x, u), italic-font(u) = distinct-yes.
`)
	plain, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	opt := OptimizePlan(plain, env, OptOptions{})
	var reordered bool
	for _, f := range opt.Opt.Fired {
		if f.Rule == "reorder-conjuncts" {
			reordered = true
		}
	}
	if !reordered {
		t.Fatalf("expected reorder-conjuncts to fire:\nplain:\n%s\nopt:\n%s\nfired: %+v",
			PlanString(plain.Root), PlanString(opt.Root), opt.Opt.Fired)
	}
	// The comparison must now evaluate before the constraint — i.e. sit
	// below it, further down the rendered tree.
	ps := PlanString(opt.Root)
	cmpAt := strings.Index(ps, "σ[u < w]")
	consAt := strings.Index(ps, `σ[bold-font(s)="distinct-yes"]`)
	if cmpAt < 0 || consAt < 0 || cmpAt < consAt {
		t.Fatalf("comparison should sit below the constraint:\n%s", ps)
	}
	want, err := plain.Execute(NewContext(env))
	if err != nil {
		t.Fatal(err)
	}
	got, err := opt.Execute(NewContext(env))
	if err != nil {
		t.Fatal(err)
	}
	if got.Canonical() != want.Canonical() {
		t.Fatalf("reordered plan differs:\nopt:\n%s\nplain:\n%s", got.Canonical(), want.Canonical())
	}
}

// TestOptimizerIdempotent: optimizing an already-optimized plan is the
// identity — decisions are deterministic and reach a fixpoint in one
// pass.
func TestOptimizerIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	env := buildOptEnv(r, 8)
	for _, src := range []string{fusionDefeatSrc, fusedSrc} {
		plain, err := Compile(alog.MustParse(src), env)
		if err != nil {
			t.Fatal(err)
		}
		once := OptimizePlan(plain, env, OptOptions{})
		twice := OptimizePlan(once, env, OptOptions{})
		if len(twice.Opt.Fired) != 0 {
			t.Fatalf("second pass fired rules: %+v", twice.Opt.Fired)
		}
		if twice.Root != once.Root {
			t.Fatalf("second pass rebuilt the plan:\nonce:\n%s\ntwice:\n%s",
				PlanString(once.Root), PlanString(twice.Root))
		}
	}
}

// TestOptimizerCSE: equal subplans are one node across two compiles and
// across their rewrites, and a refined program's plan shares with the
// base plan everything the refinement left alone.
func TestOptimizerCSE(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	env := buildOptEnv(r, 6)
	compile := func(prog *alog.Program) *Plan {
		p, err := Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	prog := alog.MustParse(fusionDefeatSrc)
	p1, p2 := compile(prog), compile(alog.MustParse(fusionDefeatSrc))
	if p1.Root != p2.Root {
		t.Fatal("separate compilations of one program built separate roots")
	}
	o1, o2 := OptimizePlan(p1, env, OptOptions{}), OptimizePlan(p2, env, OptOptions{})
	if o1.Root != o2.Root || o1.Root == p1.Root {
		t.Fatal("the rewrites of one plan should be one root, and not the unrewritten one")
	}
	next := prog.Clone()
	if err := next.AddConstraint(alog.AttrRef{Pred: "e1", Var: "s"}, "italic-font", "no"); err != nil {
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
	collect(o1.Root)
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
	count(OptimizePlan(compile(next), env, OptOptions{}).Root)
	if shared == 0 || fresh == 0 || fresh >= CountNodes(o1.Root) {
		t.Fatalf("refined plan: %d subtrees shared with the base plan, %d nodes new of %d", shared, fresh, CountNodes(o1.Root))
	}
}

// TestOptimizerDeltaLockstep: two successive optimized plan versions
// (one added constraint apart) still delta-link and replay tuples.
func TestOptimizerDeltaLockstep(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	env := buildOptEnv(r, 8)
	prog := alog.MustParse(fusionDefeatSrc)
	p1, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	o1 := OptimizePlan(p1, env, OptOptions{})

	next := prog.Clone()
	if err := next.AddConstraint(alog.AttrRef{Pred: "e1", Var: "s"}, "bold-font", "distinct-yes"); err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(next, env)
	if err != nil {
		t.Fatal(err)
	}
	o2 := OptimizePlan(p2, env, OptOptions{})

	ctx := NewContext(env)
	ctx.EnableDelta()
	if _, err := o1.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.RegisterDelta(o1.Root, o2.Root)
	got, err := o2.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.TuplesReused == 0 {
		t.Fatal("optimized plan versions did not delta-link (no tuples reused)")
	}
	// Same program executed without the optimizer must agree.
	want, err := p2.Execute(NewContext(env))
	if err != nil {
		t.Fatal(err)
	}
	if got.Canonical() != want.Canonical() {
		t.Fatalf("delta-evaluated optimized plan differs:\n%s\nvs\n%s", got.Canonical(), want.Canonical())
	}
}

// TestOptimizerQuarantineCommute: per-document fault quarantine and the
// optimizer's rewrites commute. The injector dooms documents purely by
// (seed, site, doc), so which doomed documents actually quarantine
// depends on which p-function calls the plan makes: the fused join
// probes exactly the token-sharing pairs — a subset of the naive cross
// product's calls, and precisely the pairs that could ever survive the
// join. Hence the optimized run's quarantine set is a subset of the
// plain run's, the difference only ever contains documents that
// contribute nothing to the result, and the surviving results are
// byte-identical — at any worker count.
func TestOptimizerQuarantineCommute(t *testing.T) {
	exec := func(optimize bool, workers int) (string, map[string]bool) {
		rr := rand.New(rand.NewSource(71))
		env := buildOptEnv(rr, 8)
		inj := fault.New(42, fault.Rule{Site: "pfunc", Mode: fault.ModeError, Num: 1, Den: 8})
		env.FaultHook = inj.Hook()
		plan, err := Compile(alog.MustParse(fusionDefeatSrc), env)
		if err != nil {
			t.Fatal(err)
		}
		if optimize {
			plan = OptimizePlan(plan, env, OptOptions{})
		}
		ctx := NewContext(env)
		ctx.Workers = workers
		ctx.FaultPolicy = QuarantineFaults
		res, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		docs := map[string]bool{}
		if q := ctx.quarantined(); q != nil {
			for _, rec := range q.records {
				docs[rec.Doc] = true
			}
		}
		return res.Canonical(), docs
	}
	plainRes, plainQ := exec(false, 1)
	for _, workers := range []int{1, 8} {
		optRes, optQ := exec(true, workers)
		if plainRes != optRes {
			t.Fatalf("workers=%d: quarantined results differ:\nopt:\n%s\nplain:\n%s",
				workers, optRes, plainRes)
		}
		for d := range optQ {
			if !plainQ[d] {
				t.Fatalf("workers=%d: optimized run quarantined %s, which the plain run did not", workers, d)
			}
		}
	}
	// Determinism: the optimized plan's quarantine set is identical
	// across worker counts.
	_, q1 := exec(true, 1)
	_, q8 := exec(true, 8)
	if len(q1) != len(q8) {
		t.Fatalf("optimized quarantine sets differ across workers: %d vs %d", len(q1), len(q8))
	}
	for d := range q1 {
		if !q8[d] {
			t.Fatalf("doc %s quarantined at workers=1 but not workers=8", d)
		}
	}
}
