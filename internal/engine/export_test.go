package engine

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"iflex/internal/compact"
	"iflex/internal/feature"
)

// NoAdoptForTest turns adoption off until restore is called, so that
// every linked node runs its operator: the oracle adoption is compared
// with. Tests that call it must not run in parallel with tests that
// evaluate.
func NoAdoptForTest() (restore func()) {
	noAdopt = true
	return func() { noAdopt = false }
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
// corpus), its node, the table, and what SumAssignments adds for the
// tables between a constraint run's stages (0 for any other node).
type CachedTable struct {
	Filter       map[string]bool
	Node         Node
	Table        *compact.Table
	StageAssigns int
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
		out = append(out, CachedTable{Filter: filter, Node: e.node, Table: e.table, StageAssigns: int(e.trace.stageAsg.Load())})
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

// RunForTest returns the attribute a constraint run refines and every
// constraint it applies, in stage order; ok is false for any other node.
func RunForTest(n Node) (attr string, cons []*feature.Cons, ok bool) {
	if c, is := n.(*constraintNode); is {
		return c.attr, c.cons, true
	}
	return "", nil, false
}

// RebuildForTest calls the constructor of n, a node built against env, with
// n's own fields, and returns what it returns.
func RebuildForTest(env *Env, n Node) Node {
	switch t := n.(type) {
	case *scanNode:
		return newScanNode(env, t.pred, t.cols)
	case *fromNode:
		return newFromNode(env, t.parent, t.inVar, t.outVar)
	case *crossNode:
		return newCrossNode(env, t.left, t.right)
	case *simJoinNode:
		return newSimJoinNode(env, t.left, t.right, t.fname, t.leftVar, t.rightVar)
	case *unionNode:
		return newUnionNode(env, t.kids)
	case *projectNode:
		return newProjectNode(env, t.parent, t.srcCols, t.outCols)
	case *annotateNode:
		return newAnnotateNode(env, t.parent, t.exists, t.annotate)
	case *constraintNode:
		// Its key names the run it extends, not the run's input.
		return newConstraintNode(env, t.kids[0], t.attr, t.cons)
	case *compareNode:
		return newCompareNode(env, t.parent, t.cmp)
	case *funcNode:
		return newFuncNode(env, t.parent, t.fname, t.args)
	case *procNode:
		return newProcNode(env, t.parent, t.pname, t.inVar, t.outVars)
	}
	panic(fmt.Sprintf("engine: no constructor for %T", n))
}

// KindForTest returns the operator n declared when it was interned.
func KindForTest(n Node) OpKind { return n.identity().kind }

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
