package engine_test

import (
	"fmt"
	"sort"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
)

// TestSharedRowsNeverMutated: a table is immutable once built, so operators
// share the rows, cells and assignment lists they leave alone — ψ with a
// lone contributor, a selection that narrows nothing, a refinement stage
// that changes nothing, the tuple loop's one row array. After whole T1–T9
// sessions, every table still in the session's cache must render exactly
// like its node evaluated afresh under the same document subset: an
// operator that wrote into a row it shares would have changed a table
// evaluated before it.
func TestSharedRowsNeverMutated(t *testing.T) {
	workers, deltas := []int{1, 8}, []bool{true, false}
	if testing.Short() {
		workers, deltas = []int{8}, []bool{true}
	}
	for _, task := range corpus.Tasks() {
		c := task.Generate(24, 1)
		for _, strategy := range []assistant.Strategy{assistant.Sequential{}, assistant.Simulation{}} {
			for _, w := range workers {
				for _, delta := range deltas {
					where := fmt.Sprintf("%s %T workers=%d delta=%t", task.ID, strategy, w, delta)
					env := task.Env(c)
					var ctxs []*engine.Context
					restore := engine.CaptureContextsForTest(func(ctx *engine.Context) { ctxs = append(ctxs, ctx) })
					s := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(),
						assistant.Config{Strategy: strategy, Workers: w, SubsetSeed: 1})
					restore()
					if len(ctxs) != 1 {
						t.Fatalf("%s: the session made %d contexts", where, len(ctxs))
					}
					if !delta {
						engine.DisableDeltaForTest(ctxs[0])
					}
					if _, err := s.Run(); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					checkCachedTables(t, where, env, ctxs[0])
				}
			}
		}
	}
}

// subsetKey names the document subset of a cached table's mode: the sorted
// page ids, or the whole corpus for a nil filter.
func subsetKey(filter map[string]bool) string {
	ids := make([]string, 0, len(filter))
	for id := range filter {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return fmt.Sprint(filter != nil, ids)
}

// checkCachedTables evaluates the node of every table ctx holds in a fresh
// context per document subset, children before parents (a node is built,
// and numbered, after its inputs), and compares renderings as it goes.
func checkCachedTables(t *testing.T, where string, env *engine.Env, ctx *engine.Context) {
	t.Helper()
	bySubset := map[string][]engine.CachedTable{}
	for _, e := range engine.CachedTablesForTest(ctx) {
		k := subsetKey(e.Filter)
		bySubset[k] = append(bySubset[k], e)
	}
	if len(bySubset) < 2 {
		t.Fatalf("%s: %d document subsets cached; a session evaluates on a subset and on the corpus", where, len(bySubset))
	}
	for _, entries := range bySubset {
		sort.Slice(entries, func(a, b int) bool { return entries[a].Node.ID() < entries[b].Node.ID() })
		fresh := engine.NewContext(env)
		fresh.Workers = 1
		fresh.SetDocFilter(entries[0].Filter)
		for _, e := range entries {
			want, err := engine.Eval(fresh, e.Node)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if got, want := e.Table.String(), want.String(); got != want {
				t.Fatalf("%s: the cached table of %s changed after it was built\ncached:\n%s\nfresh:\n%s", where, e.Node.Signature(), got, want)
			}
		}
	}
}
