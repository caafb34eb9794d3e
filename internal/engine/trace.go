package engine

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iflex/internal/compact"
)

// This file is the engine's observability layer. When tracing is enabled
// on a Context (StartTrace, or implicitly by Explain), every Eval call
// folds into one aggregate per cache key under the tracer's mutex: a hit
// or a wait bumps a counter, an evaluating call adds its counters and, the
// first time, its output sizes. Nothing is rendered while evaluating —
// signatures and key strings are formatted by TraceOps alone, so an Eval
// call costs the same whether tracing is on or off, apart from the lock
// and, on a key's first evaluation, the goroutine id. The aggregate
// counts (evaluations, hits, output sizes, the det counters of Work) are
// identical at any worker count — the same determinism guarantee the
// evaluator itself makes — while wall times and worker attribution
// naturally vary run to run.

// OpKind buckets plan operators for the per-operator time histogram in
// Stats.OpTimeNs.
type OpKind int

const (
	OpScan OpKind = iota
	OpFrom
	OpCross
	OpSimJoin
	OpUnion
	OpProject
	OpAnnotate
	OpConstraint
	OpCompare
	OpFunc
	OpProc
	OpOther
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"scan", "from", "cross", "simjoin", "union", "project",
	"annotate", "constrain", "compare", "pfunc", "proc", "other",
}

func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "other"
}

// kindOf buckets a node by its operator type.
func kindOf(n Node) OpKind {
	switch n.(type) {
	case *scanNode:
		return OpScan
	case *fromNode:
		return OpFrom
	case *crossNode:
		return OpCross
	case *simJoinNode:
		return OpSimJoin
	case *unionNode:
		return OpUnion
	case *projectNode:
		return OpProject
	case *annotateNode:
		return OpAnnotate
	case *constraintNode:
		return OpConstraint
	case *compareNode:
		return OpCompare
	case *funcNode:
		return OpFunc
	case *procNode:
		return OpProc
	}
	return OpOther
}

// EvalTrace is the per-evaluation counter block threaded through one
// node's eval call. Operator loops may run chunks of one evaluation on
// several pool goroutines at once, so updates are atomic. A nil
// *EvalTrace is valid and discards per-eval attribution (the context-wide
// Stats totals are still maintained).
type EvalTrace struct {
	// work is this evaluation's share of the loop counters: each chunk's
	// statBatch merges into it as it merges into Stats.
	work        Work
	quarantined atomic.Int64
	// stageAsg totals, for a constraint run, the assignments of the stage
	// tables it did not build.
	stageAsg atomic.Int64
	// Set once by a constraint run, after its chunks have joined: the run's
	// stage count and the stages its delta predecessor covered (-1 = none).
	stages, resumedFrom int
}

// quarantine attributes n quarantined per-document units to this
// evaluation (the context-wide totals are counted by quarantineDocs).
// A nil receiver discards the count.
func (ev *EvalTrace) quarantine(n int64) {
	if ev != nil && n != 0 {
		ev.quarantined.Add(n)
	}
}

// tracer aggregates the traced Eval calls by cache key. A nil *tracer
// discards them.
type tracer struct {
	mu  sync.Mutex
	ops map[entryKey]*opTrace
}

// opTrace is one cache key's aggregate and the node its labels are
// rendered from.
type opTrace struct {
	node Node
	OpStats
}

// at returns key's aggregate, making it on the first call. Callers hold
// t.mu.
func (t *tracer) at(key entryKey, n Node) *opTrace {
	o := t.ops[key]
	if o == nil {
		o = &opTrace{node: n}
		t.ops[key] = o
	}
	return o
}

// served counts a call that evaluated nothing: a hit, or a wait on a
// concurrent evaluation of the same key.
func (t *tracer) served(key entryKey, n Node, wait bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if o := t.at(key, n); wait {
		o.Waits++
	} else {
		o.Hits++
	}
	t.mu.Unlock()
}

// evaluated folds in a call that evaluated the node: wall (inclusive) and
// self time, its Work and quarantine counts. Output sizes (of out, zero
// when err is set), stages and the worker are those of the key's first
// evaluating call.
func (t *tracer) evaluated(key entryKey, n Node, ev *EvalTrace, wall, self time.Duration, out *compact.Table, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.at(key, n)
	if o.Evals == 0 {
		if err == nil {
			o.Tuples, o.Expanded, o.Assignments = len(out.Tuples), out.NumExpandedTuples(), out.NumAssignments()
		}
		o.Stages, o.ResumedFrom = ev.stages, ev.resumedFrom
		o.Goroutine = goid()
	}
	o.Evals++
	o.Wall += wall
	o.Self += self
	ev.work.add(&o.Work)
	o.Quarantined += ev.quarantined.Load()
}

// snapshot copies the aggregates, their labels unrendered; nil when
// tracing is off.
func (t *tracer) snapshot() map[entryKey]opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[entryKey]opTrace, len(t.ops))
	for k, o := range t.ops {
		out[k] = *o
	}
	return out
}

// StartTrace enables per-operator tracing on the context, discarding any
// previously collected aggregates. Tracing is optional and off by default;
// the always-on Stats counters are unaffected.
func (ctx *Context) StartTrace() { ctx.trace.Store(&tracer{ops: map[entryKey]*opTrace{}}) }

// Tracing reports whether per-operator tracing is enabled.
func (ctx *Context) Tracing() bool { return ctx.trace.Load() != nil }

// OpStats aggregates every traced Eval call of one plan operator
// (identified by its cache key, so subset and full evaluations of the
// same subtree stay separate).
type OpStats struct {
	Key         string
	Op          string
	Signature   string
	Evals       int64         // calls that computed the node
	Hits        int64         // calls served from the reuse cache
	Waits       int64         // calls that blocked on an in-flight evaluation
	Wall        time.Duration // total evaluation time, inputs included
	Self        time.Duration // total time in the operator alone
	Tuples      int           // output compact tuples
	Expanded    int           // output expanded tuples
	Assignments int           // output assignments
	Work                      // loop counters, summed over the computing calls
	Quarantined int64         // per-document units dropped into quarantine
	Stages      int           // stages of a constraint run (0 otherwise)
	ResumedFrom int           // stages the first call's predecessor covered, -1 = none
	Goroutine   int64         // goroutine id of the first evaluating call
}

// TraceOps returns the per-operator aggregates with their labels
// rendered, sorted by cache key — a deterministic order regardless of the
// worker interleaving that produced them. Returns nil when tracing is off.
func (ctx *Context) TraceOps() []OpStats {
	ops := ctx.trace.Load().snapshot()
	if ops == nil {
		return nil
	}
	markers := map[uint32]string{}
	out := make([]OpStats, 0, len(ops))
	for k, o := range ops {
		marker, ok := markers[k.mode]
		if !ok {
			marker = ctx.modeOf(k.mode).marker()
			markers[k.mode] = marker
		}
		o.Signature = o.node.Signature()
		o.Key, o.Op = marker+"|"+o.Signature, opName(o.node)
		out = append(out, o.OpStats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// goid extracts the current goroutine's id from the runtime stack header
// ("goroutine 123 [running]:"). It is called on a cache key's first
// evaluating call — node granularity, not tuple granularity — and never
// when tracing is off.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	var id int64
	for i := len(prefix); i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// StatsSnapshot is the JSON rendering of Stats with derived values, the
// shape the service's result stream emits.
type StatsSnapshot struct {
	Stats
	CacheHitRate    float64            `json:"cache_hit_rate"`
	PoolUtilization float64            `json:"pool_utilization"`
	FeatureMemoRate float64            `json:"feature_memo_hit_rate"`
	FullEvals       int64              `json:"full_evals"`
	DeltaReuseRate  float64            `json:"delta_reuse_rate"`
	OpTimeSeconds   map[string]float64 `json:"op_time_seconds,omitempty"`
}

// Snapshot derives the JSON view from the raw counters. Call it only
// after evaluation quiesces (the same contract as reading Stats fields).
func (s *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Stats:     *s,
		FullEvals: s.NodesEvaluated - s.DeltaEvals,
	}
	if total := s.NodesEvaluated + s.CacheHits; total > 0 {
		snap.CacheHitRate = float64(s.CacheHits) / float64(total)
	}
	if total := s.FeatureMemoHits + s.FeatureMemoMisses; total > 0 {
		snap.FeatureMemoRate = float64(s.FeatureMemoHits) / float64(total)
	}
	if attempts := s.PoolSlotsGranted + s.PoolSlotsDenied; attempts > 0 {
		snap.PoolUtilization = float64(s.PoolSlotsGranted) / float64(attempts)
	}
	if total := s.TuplesReused + s.TuplesRecomputed; total > 0 {
		snap.DeltaReuseRate = float64(s.TuplesReused) / float64(total)
	}
	for k, ns := range s.OpTimeNs {
		if ns > 0 {
			if snap.OpTimeSeconds == nil {
				snap.OpTimeSeconds = map[string]float64{}
			}
			snap.OpTimeSeconds[OpKind(k).String()] = float64(ns) / 1e9
		}
	}
	return snap
}
