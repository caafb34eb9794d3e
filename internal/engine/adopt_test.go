package engine

import (
	"testing"

	"iflex/internal/alog"
)

// TestAdoptUnrunAboveUnchangedConstraint: a new constraint that leaves
// every cell of its run as it was (italic-font=no over bold school names,
// none of them italic) is adopted after its run replays, and then every
// node above it is adopted without running: each reads exactly the table
// its predecessor read. The counts are those of a plan that ran every
// node: LimitFallbacks (forced here by a tight value limit) equals the
// evaluation's with the skip off and with delta evaluation off.
func TestAdoptUnrunAboveUnchangedConstraint(t *testing.T) {
	type outcome struct {
		table                   string
		unrun, adopted, evals   int64
		fallbacks, fallbacksP2  int64
		tuples, hits, recompute int64
	}
	run := func(delta, skip bool) (outcome, int) {
		if !skip {
			noAdoptUnrun = true
			defer func() { noAdoptUnrun = false }()
		}
		env := figure2Env()
		env.Limits.MaxCellValues = 2
		prog := alog.MustParse(figure2Src)
		p1, err := Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		next := prog.Clone()
		if err := next.AddConstraint(alog.AttrRef{Pred: "extractSchools", Var: "s"}, "italic-font", "no"); err != nil {
			t.Fatal(err)
		}
		p2, err := Compile(next, env)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(env)
		ctx.Workers = 1
		if delta {
			ctx.EnableDelta()
		}
		if _, err := p1.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		before := ctx.Stats
		ctx.RegisterDelta(p1.Root, p2.Root)
		res, err := p2.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		s := ctx.Stats
		o := outcome{
			table: res.String(), unrun: s.AdoptedUnrun - before.AdoptedUnrun, adopted: s.TablesAdopted - before.TablesAdopted,
			evals: s.NodesEvaluated - before.NodesEvaluated, fallbacks: s.LimitFallbacks,
			fallbacksP2: s.LimitFallbacks - before.LimitFallbacks, tuples: s.TuplesBuilt, hits: s.CacheHits,
			recompute: s.TuplesRecomputed,
		}
		// The nodes above the s run: every node with the run below it.
		var run *constraintNode
		var find func(n Node)
		find = func(n Node) {
			if c, ok := n.(*constraintNode); ok && c.attr() == "s" {
				run = c
			}
			for _, k := range n.Children() {
				find(k)
			}
		}
		find(p2.Root)
		above := map[NodeID]bool{}
		var walk func(n Node) bool
		walk = func(n Node) bool {
			hit := false
			for _, k := range n.Children() {
				if k == Node(run) || walk(k) {
					hit = true
				}
			}
			if hit {
				above[n.ID()] = true
			}
			return hit
		}
		walk(p2.Root)
		return o, len(above)
	}
	on, above := run(true, true)
	off, _ := run(true, false)
	full, _ := run(false, true)
	if above == 0 {
		t.Fatal("no node above the new constraint")
	}
	t.Logf("%d nodes above the new constraint, %d adopted unrun; the second plan charged %d fallbacks", above, on.unrun, on.fallbacksP2)
	if on.unrun != int64(above) || on.adopted != int64(above)+1 {
		t.Errorf("%d nodes above the new constraint: %d adopted unrun, %d adopted in all (want %d and %d)",
			above, on.unrun, on.adopted, above, above+1)
	}
	if off.unrun != 0 || off.adopted != on.adopted {
		t.Errorf("skip off: %d adopted unrun, %d adopted; skip on: %d adopted", off.unrun, off.adopted, on.adopted)
	}
	if on.fallbacksP2 == 0 {
		t.Fatal("the second plan charged no fallback: the recharge is untested")
	}
	for _, o := range []outcome{off, full} {
		if o.table != on.table || o.fallbacks != on.fallbacks || o.fallbacksP2 != on.fallbacksP2 ||
			o.evals != on.evals || o.tuples != on.tuples || o.hits != on.hits {
			t.Errorf("skipping changed what a run of every node gives:\n%+v\n%+v", on, o)
		}
	}
	if on.recompute != off.recompute {
		t.Errorf("tuples recomputed %d with the skip, %d without: the skipped nodes replay every tuple", on.recompute, off.recompute)
	}
}
