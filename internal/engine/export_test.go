package engine

import (
	"maps"

	"iflex/internal/compact"
)

// StackRunsForTest makes every constraint node built until restore is
// called a one-stage node over the constraint node below it — the chain a
// run replaces, which the run tests use as their oracle. Tests that call it
// must not run in parallel with tests that compile plans, and must build the
// chain against an Env of its own: a chain node and the run it stands for
// are interned under one key.
func StackRunsForTest() (restore func()) {
	stackRuns = true
	return func() { stackRuns = false }
}

// CaptureContextsForTest hands every Context made until restore is called
// to f. Tests that call it must not run in parallel with tests that make
// contexts.
func CaptureContextsForTest(f func(*Context)) (restore func()) {
	contextMade = f
	return func() { contextMade = nil }
}

// DisableDeltaForTest turns delta evaluation off on a context whose owner
// turned it on, before the context's first evaluation.
func DisableDeltaForTest(ctx *Context) { ctx.deltaOn = false }

// CachedTable is one result table resident in a context's cache: the
// document subset of the mode it was evaluated under (nil for the whole
// corpus), its node, and the table.
type CachedTable struct {
	Filter map[string]bool
	Node   Node
	Table  *compact.Table
}

// CachedTablesForTest lists the result tables ctx's cache holds, in no
// particular order. Stale tables, and those of modes that quarantined
// documents, are left out.
func CachedTablesForTest(ctx *Context) []CachedTable {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	var out []CachedTable
	for key, e := range ctx.cache {
		mode := ctx.modes[key.mode]
		if e.table == nil || e.stale || len(mode.barred) > 0 {
			continue
		}
		var filter map[string]bool
		if mode.subset {
			filter = maps.Clone(mode.in)
		}
		out = append(out, CachedTable{Filter: filter, Node: e.node, Table: e.table})
	}
	return out
}

// InternedForTest returns every node built against env so far, in no
// particular order.
func InternedForTest(env *Env) []Node {
	env.nodes.mu.Lock()
	defer env.nodes.mu.Unlock()
	out := make([]Node, 0, len(env.nodes.m))
	for _, n := range env.nodes.m {
		out = append(out, n)
	}
	return out
}
