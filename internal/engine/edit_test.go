package engine_test

import (
	"math/rand"
	"strconv"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/feature"
)

// editShapesSrc are programs no task has, over T9's tables: description
// rules nested two deep (ending together, and not), one predicate inlined
// twice into a rule, a predicate with two description rules, selections of
// the caller sharing the block a constraint joins, constraint sugar, a call
// site binding a head variable to a constant, equal literals in one body,
// in the caller and in the inlined rule, ahead of sugar a constraint must
// follow, a call with a constant argument, below the constraint, to a
// predicate whose own body names synthetic columns, and a similarity the
// fold fuses ahead of a selection listed before it: in a caller of the
// predicates an edit changes, and in the inlined rule whose cross product
// binds the attributes an edit constrains, before and after the similarity
// in body order, blocking it or not.
var editShapesSrc = []string{`
Q(x, a) :- Amazon(x), outer(x, a).
outer(x, a) :- from(x, s), inner(s, a), numeric(a) = yes.
inner(s, a) :- from(s, a).
`, `
Q(x, a) :- Amazon(x), outer(x, a), a != NULL.
outer(x, a) :- from(x, s), inner(s, a).
inner(s, a) :- from(s, a), max-tokens(a) = "9".
`, `
Q(t1, t2) :- Amazon(x), Barnes(y), ext(x, t1), ext(y, t2), similar(t1, t2).
ext(d, t) :- from(d, t).
`, `
rec(x, <t>) :- Amazon(x), ext(x, t).
Q(t) :- rec(x, t), t != NULL.
ext(x, t) :- from(x, t), bold-font(t) = yes.
ext(x, t) :- from(x, t), italic-font(t) = yes.
`, `
Q(x, p) :- Amazon(x), ext(x, p, q), p > 5, numeric(p) = yes, max_length(q, 40), q < p.
ext(x, p, q) :- from(x, p), from(x, q).
`, `
Q(t) :- Amazon(x), ext(x, t, "c").
ext(x, t, k) :- from(x, t), Barnes(k).
`, `
Q(t1, t2) :- Amazon(x), Barnes(y), ext(x, t1), ext(y, t2), similar(t1, t2), similar(t1, t2).
ext(d, t) :- from(d, t), numeric(t) = yes, numeric(t) = yes, max_length(t, 40).
`, `
Q(x, t) :- Amazon(x), ext(x, t), r(x, "c").
r(x, k) :- Amazon(x), Barnes(k), Barnes("zz").
ext(x, t) :- from(x, t).
`, `
a(x, <s>) :- Amazon(x), e1(x, s).
b(y, <t>, <u>) :- Barnes(y), e2(y, t), e2(y, u).
Q(s, t) :- a(x, s), b(y, t, u), italic-font(u) = yes, similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = yes.
e2(y, t) :- from(y, t), bold-font(t) = yes.
`, `
Q(t, u) :- Amazon(x), ext(x, t, y, u), similar(t, u).
ext(x, t, y, u) :- from(x, t), b(y, u), y != NULL.
b(y, u) :- Barnes(y), from(y, u).
`, `
Q(t, u) :- Amazon(x), ext(x, t, y, u).
ext(x, t, y, u) :- from(x, t), b(y, u), y != NULL, similar(t, u).
b(y, u) :- Barnes(y), from(y, u).
`}

// TestWithConstraintEqualsCompile: along seeded chains of up to 20 edits
// over every task program and the shapes above, each edited plan's root is
// the one Compile builds for the program after AddConstraint, and where
// either fails, both fail with one message.
func TestWithConstraintEqualsCompile(t *testing.T) {
	t9, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	type program struct {
		name, src string
		env       *engine.Env
		oracle    assistant.CandidateProvider
	}
	var progs []program
	for _, task := range append(corpus.Tasks(), corpus.DBLifeTasks()...) {
		progs = append(progs, program{task.ID, task.Program, task.Env(task.Generate(12, 1)), task.Oracle()})
	}
	for i, src := range editShapesSrc {
		progs = append(progs, program{"shape" + strconv.Itoa(i), src, t9.Env(t9.Generate(6, 1)), nil})
	}
	chains, edits, refused := 4, 0, 0
	if testing.Short() {
		chains = 1
	}
	for _, pr := range progs {
		reg := pr.env.Features
		for seed := int64(1); seed <= int64(chains); seed++ {
			rng := rand.New(rand.NewSource(seed))
			prog := alog.MustParse(pr.src)
			plan, err := engine.Compile(prog, pr.env)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			// Every head variable of a description rule, inputs and
			// variables no from binds included.
			var attrs []alog.AttrRef
			for _, r := range prog.Rules {
				for _, a := range r.Head.Args {
					if r.IsDescription(nil) {
						attrs = append(attrs, alog.AttrRef{Pred: r.Head.Pred, Var: a.Var})
					}
				}
			}
			for step := 0; step < 20; step++ {
				attr := attrs[rng.Intn(len(attrs))]
				fname := assistant.QuestionFeatures[rng.Intn(len(assistant.QuestionFeatures))]
				f, err := reg.Lookup(fname)
				if err != nil {
					t.Fatal(err)
				}
				var vals []string
				if f.Kind() == feature.KindBoolean {
					vals = assistant.BoolValues
				} else if pr.oracle != nil {
					vals = pr.oracle.Candidates(attr, fname)
				}
				v := strconv.Itoa(1 + rng.Intn(60))
				if len(vals) > 0 {
					v = vals[rng.Intn(len(vals))]
				}
				edited, eerr := plan.WithConstraint(attr, fname, v)
				trial := prog.Clone()
				werr := trial.AddConstraint(attr, fname, v)
				var want *engine.Plan
				if werr == nil {
					want, werr = engine.Compile(trial, pr.env)
				}
				if werr != nil {
					// The program cannot take this constraint; the chain goes
					// on from the one it has.
					if eerr == nil || eerr.Error() != werr.Error() {
						t.Fatalf("%s seed %d step %d, %s(%s)=%q: edit error %v, compile error %v", pr.name, seed, step, fname, attr, v, eerr, werr)
					}
					refused++
					continue
				}
				if eerr != nil || edited.Root.ID() != want.Root.ID() {
					t.Fatalf("%s seed %d step %d, %s(%s)=%q: edit ≠ compile (%v)\nedit:    %v\ncompile: %s",
						pr.name, seed, step, fname, attr, v, eerr, edited, engine.PlanString(want.Root))
				}
				prog, plan = trial, edited
				edits++
			}
			// The errors of an edit nothing could express.
			for _, bad := range []struct {
				attr  alog.AttrRef
				fname string
			}{
				{attrs[0], "no-such-feature"},
				{alog.AttrRef{Pred: "noSuchPred", Var: attrs[0].Var}, "bold-font"},
				{alog.AttrRef{Pred: attrs[0].Pred, Var: "noSuchVar"}, "bold-font"},
			} {
				_, eerr := plan.WithConstraint(bad.attr, bad.fname, "yes")
				trial := prog.Clone()
				werr := trial.AddConstraint(bad.attr, bad.fname, "yes")
				if werr == nil {
					_, werr = engine.Compile(trial, pr.env)
				}
				if eerr == nil || werr == nil || eerr.Error() != werr.Error() {
					t.Fatalf("%s: %s(%s): edit error %v, compile error %v", pr.name, bad.fname, bad.attr, eerr, werr)
				}
			}
		}
	}
	if edits < 200*chains || refused == 0 {
		t.Fatalf("%d edits, %d refused: the chains exercised too little", edits, refused)
	}
}

// TestUnknownFeatureFailsOnce: Compile resolves every constraint's feature
// before it folds anything, so an unknown one is one error line naming the
// rule the constraint is written in — written out, as sugar, in a rule the
// query never reaches, or added by an edit — and WithConstraint returns
// that same line.
func TestUnknownFeatureFailsOnce(t *testing.T) {
	t9, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	env := t9.Env(t9.Generate(6, 1))
	nested := `
rec(x, <t>) :- Amazon(x), ext(x, t).
Q(t) :- rec(x, t), t != NULL.
`
	for _, tc := range []struct {
		name, base, written string // written "": AddConstraint writes it
		attr                alog.AttrRef
		fname, want         string
	}{{
		name:    "written out",
		base:    nested + `ext(x, t) :- from(x, t).`,
		written: nested + `ext(x, t) :- from(x, t), no-such-feature(t) = yes.`,
		attr:    alog.AttrRef{Pred: "ext", Var: "t"}, fname: "no-such-feature",
		want: `engine: rule "ext": feature: unknown feature "no-such-feature"`,
	}, {
		name:    "sugar",
		base:    nested + `ext(x, t) :- from(x, t).`,
		written: nested + `ext(x, t) :- from(x, t), no_such_feature(t, "yes").`,
		attr:    alog.AttrRef{Pred: "ext", Var: "t"}, fname: "no_such_feature",
		want: `engine: rule "ext": feature: unknown feature "no-such-feature"`,
	}, {
		name: "never reached",
		base: `Q(t) :- Amazon(x), ext(x, t).
ext(x, t) :- from(x, t).
spare(y, u) :- from(y, u).`,
		written: `Q(t) :- Amazon(x), ext(x, t).
ext(x, t) :- from(x, t).
spare(y, u) :- from(y, u), no-such-feature(u) = yes.`,
		attr: alog.AttrRef{Pred: "spare", Var: "u"}, fname: "no-such-feature",
		want: `engine: rule "spare": feature: unknown feature "no-such-feature"`,
	}, {
		name: "added by an edit",
		base: editShapesSrc[0],
		attr: alog.AttrRef{Pred: "inner", Var: "a"}, fname: "no-such-feature",
		want: `engine: rule "inner": feature: unknown feature "no-such-feature"`,
	}} {
		base := alog.MustParse(tc.base)
		plan, err := engine.Compile(base, env)
		if err != nil {
			t.Fatalf("%s: base program: %v", tc.name, err)
		}
		written := base.Clone()
		if tc.written != "" {
			written = alog.MustParse(tc.written)
		} else if err := written.AddConstraint(tc.attr, tc.fname, "yes"); err != nil {
			t.Fatal(err)
		}
		_, cerr := engine.Compile(written, env)
		_, eerr := plan.WithConstraint(tc.attr, tc.fname, "yes")
		if cerr == nil || cerr.Error() != tc.want || eerr == nil || eerr.Error() != tc.want {
			t.Errorf("%s:\ncompile: %v\nedit:    %v\nwant:    %s", tc.name, cerr, eerr, tc.want)
		}
	}
}
