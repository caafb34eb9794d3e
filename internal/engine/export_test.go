package engine

import (
	"maps"
	"sort"
	"strings"

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

// NoAdoptUnrunForTest turns adoption before evaluation off until restore
// is called, so that every linked node runs its operator: the oracle the
// skip is compared with. Tests that call it must not run in parallel with
// tests that evaluate.
func NoAdoptUnrunForTest() (restore func()) {
	noAdoptUnrun = true
	return func() { noAdoptUnrun = false }
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

// marker renders m as TraceOps' keys spell it: "full" or
// "subset:id1:id2…", then "|quarantine:id1,id2…" while pages are barred.
func (m evalMode) marker() string {
	marker := "full"
	if m.subset {
		marker = "subset"
		if ids := m.in.sorted(); len(ids) > 0 {
			marker += ":" + strings.Join(ids, ":")
		}
	}
	if len(m.barred) > 0 {
		marker += "|quarantine:" + strings.Join(m.barred.sorted(), ",")
	}
	return marker
}

// TracedOp is one resident result entry's trace with its labels: Key is
// the mode's marker and the signature.
type TracedOp struct {
	Key, Op, Signature string
	OpStats
}

// TraceOps returns the trace of every result entry ctx's cache holds,
// stale ones included, sorted by Key: a deterministic order whatever
// worker interleaving built them.
func (ctx *Context) TraceOps() []TracedOp {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	var out []TracedOp
	for k, e := range ctx.cache {
		if e.table != nil {
			sig := e.node.Signature()
			out = append(out, TracedOp{Key: ctx.modes[k.mode].marker() + "|" + sig, Op: opName(e.node), Signature: sig, OpStats: e.opStatsLocked()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// cacheKey renders the cache key TraceOps reports for n evaluated under
// mode: the mode's marker and the signature.
func (ctx *Context) cacheKey(mode uint32, n Node) string {
	return ctx.modeOf(mode).marker() + "|" + n.Signature()
}
