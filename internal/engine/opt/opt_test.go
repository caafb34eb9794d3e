package opt

import (
	"sync"
	"testing"
	"time"

	"iflex/internal/alog"
	"iflex/internal/engine"
)

func TestModelSeedsFromDefaults(t *testing.T) {
	m := NewModel()
	for _, k := range engine.AllOpKinds() {
		if got, want := m.UnitCost(k), engine.DefaultUnitCost(k); got != want {
			t.Fatalf("unit cost %v: got %v want %v", k, got, want)
		}
		if got, want := m.Selectivity(k), engine.DefaultSelectivity(k); got != want {
			t.Fatalf("selectivity %v: got %v want %v", k, got, want)
		}
	}
}

// TestObservedRowsByNodeIdentity: an observation adopted for a node is
// found by every compile of the same program against the same Env — they
// build the one node — and by no other node, an equal plan compiled
// against another Env included.
func TestObservedRowsByNodeIdentity(t *testing.T) {
	prog := alog.MustParse(`Q(x) :- docs(x).`)
	compile := func(env *engine.Env) engine.Node {
		env.AddDocTable("docs", "x", nil)
		plan, err := engine.Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Root
	}
	env := engine.NewEnv()
	first, again, elsewhere := compile(env), compile(env), compile(engine.NewEnv())
	if first != again {
		t.Fatal("two compiles of one program against one Env built two roots")
	}
	if first == elsewhere || first.ID() == elsewhere.ID() || first.Signature() != elsewhere.Signature() {
		t.Fatal("equal plans of two Envs must be equal strings under distinct identities")
	}
	m := NewModel()
	m.AdoptRows(map[engine.NodeID]int64{first.ID(): 42})
	if rows, ok := m.ObservedRows(again.ID()); !ok || rows != 42 {
		t.Fatalf("want (42,true), got (%d,%v)", rows, ok)
	}
	if _, ok := m.ObservedRows(elsewhere.ID()); ok {
		t.Fatal("another Env's node observed")
	}
	if _, ok := m.ObservedRows(first.Children()[0].ID()); ok {
		t.Fatal("unobserved node should miss")
	}
}

func TestRefinementNeverChangesSelectivity(t *testing.T) {
	m := NewModel()
	before := map[engine.OpKind]float64{}
	for _, k := range engine.AllOpKinds() {
		before[k] = m.Selectivity(k)
	}
	m.RefineFromSnapshot(engine.StatsSnapshot{
		TuplesBuilt:   1000,
		OpTimeSeconds: map[string]float64{"pfunc": 0.5, "scan": 0.01},
	})
	m.ObserveTrace([]engine.OpStats{
		{Op: "scan docs", Evals: 3, Wall: time.Millisecond, Tuples: 100},
		{Op: "σ[similar(...)]", Evals: 1, Wall: time.Second, Tuples: 10},
	})
	for _, k := range engine.AllOpKinds() {
		if m.Selectivity(k) != before[k] {
			t.Fatalf("selectivity of %v changed under refinement — it feeds rewrite decisions", k)
		}
	}
}

func TestRefineFromSnapshotMovesUnitCosts(t *testing.T) {
	m := NewModel()
	kinds := map[string]engine.OpKind{}
	for _, k := range engine.AllOpKinds() {
		kinds[k.String()] = k
	}
	before := m.UnitCost(kinds["pfunc"])
	// 1s of pfunc time over 1000 tuples = 1e6 ns/tuple, far above the
	// default: the EMA must move the unit cost up.
	m.RefineFromSnapshot(engine.StatsSnapshot{
		TuplesBuilt:   1000,
		OpTimeSeconds: map[string]float64{"pfunc": 1.0},
	})
	if after := m.UnitCost(kinds["pfunc"]); after <= before {
		t.Fatalf("pfunc unit cost did not increase: %v -> %v", before, after)
	}
	// Kinds with no observations stay put.
	if m.UnitCost(kinds["scan"]) != engine.DefaultUnitCost(kinds["scan"]) {
		t.Fatal("unobserved kind moved")
	}
}

func TestModelConcurrentUse(t *testing.T) {
	m := NewModel()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.UnitCost(engine.OpKind(j % 12))
				m.AdoptRows(map[engine.NodeID]int64{engine.NodeID(j): int64(j)})
				m.RefineFromSnapshot(engine.StatsSnapshot{
					TuplesBuilt:   int64(j + 1),
					OpTimeSeconds: map[string]float64{"cross": 0.001},
				})
			}
		}(i)
	}
	wg.Wait()
	if m.Report() == "" {
		t.Fatal("empty report")
	}
}
