package engine

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// This file is the engine's observability layer. When tracing is enabled
// on a Context (StartTrace, or implicitly by Explain), every Eval call
// publishes one TraceRecord onto a lock-free list: records are fully
// built before a CAS push, so concurrent readers never observe partial
// writes and tracing adds no lock contention to evaluation. Signatures and
// key strings are rendered for the records only — an untraced evaluation
// formats nothing. Snapshots merge the list into per-operator aggregates
// keyed by cache key and sorted by its rendering; the aggregate counts
// (evaluations, hits, output sizes, the det counters of Work) are identical
// at any worker count — the same determinism guarantee the evaluator itself
// makes — while wall times and worker attribution naturally vary run to
// run.

// CacheStatus classifies how one Eval call was satisfied.
type CacheStatus int

const (
	// StatusMiss marks the call that actually evaluated the node.
	StatusMiss CacheStatus = iota
	// StatusHit marks a call served from the reuse cache.
	StatusHit
	// StatusWait marks a call that blocked on a concurrent in-flight
	// evaluation of the same key and shared its result.
	StatusWait
)

func (s CacheStatus) String() string {
	switch s {
	case StatusMiss:
		return "miss"
	case StatusHit:
		return "hit"
	case StatusWait:
		return "wait"
	}
	return "unknown"
}

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

// TraceRecord is one Eval call's measurement.
type TraceRecord struct {
	Op        string
	Signature string
	Key       string // cache key rendered: mode marker + signature
	key       entryKey
	Status    CacheStatus
	// Wall, output sizes and the counts below are recorded only on the
	// evaluating (StatusMiss) call; hits and waits carry the key alone.
	// Wall is inclusive: it covers resolving the inputs, their evaluations
	// and any waits on them included. Self is the operator alone, from its
	// resolved inputs to its output.
	Wall        time.Duration
	Self        time.Duration
	Tuples      int // output compact tuples
	Expanded    int // output expanded tuples
	Assignments int // output assignments
	// Work is this call's share of the loop counters (see Stats): among
	// them the input tuples it replayed from a delta memo (TuplesReused)
	// or computed fresh (TuplesRecomputed).
	Work
	// Quarantined counts the per-document units this call dropped into
	// quarantine (such a call's output is discarded and re-evaluated, so
	// the count attributes where faults surfaced, not result contents).
	Quarantined int64
	// Stages is the number of stages of a constraint run (0 for every other
	// operator) and ResumedFrom how many of them the delta predecessor
	// covered, so that each replayed tuple resumed behind them (-1 = no
	// predecessor; meaningful only when Stages > 0).
	Stages      int
	ResumedFrom int
	Goroutine   int64 // id of the goroutine that evaluated the node
}

type traceNode struct {
	rec  TraceRecord
	next *traceNode
}

// tracer accumulates trace records via lock-free pushes. The zero value
// is ready to use; a nil *tracer discards records.
type tracer struct {
	head atomic.Pointer[traceNode]
}

// note records a call that evaluated nothing: a hit or a wait.
func (t *tracer) note(ctx *Context, n Node, key entryKey, status CacheStatus) {
	if t != nil {
		t.push(TraceRecord{Op: opName(n), Signature: n.Signature(), Key: ctx.cacheKey(key.mode, n), key: key, Status: status})
	}
}

func (t *tracer) push(rec TraceRecord) {
	if t == nil {
		return
	}
	node := &traceNode{rec: rec}
	for {
		old := t.head.Load()
		node.next = old
		if t.head.CompareAndSwap(old, node) {
			return
		}
	}
}

// StartTrace enables per-operator tracing on the context, discarding any
// previously collected records. Tracing is optional and off by default;
// the always-on Stats counters are unaffected.
func (ctx *Context) StartTrace() { ctx.trace.Store(&tracer{}) }

// Tracing reports whether per-operator tracing is enabled.
func (ctx *Context) Tracing() bool { return ctx.trace.Load() != nil }

// OpStats aggregates every traced Eval call of one plan operator
// (identified by its cache key, so subset and full evaluations of the
// same subtree stay separate).
type OpStats struct {
	Key         string
	key         entryKey
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
	ResumedFrom int           // stages the (last) call's predecessor covered, -1 = none
	Goroutine   int64         // goroutine id of the (last) evaluating call
}

// TraceOps merges the collected trace into per-operator aggregates,
// sorted by cache key — a deterministic order regardless of the worker
// interleaving that produced the records. Returns nil when tracing is
// off.
func (ctx *Context) TraceOps() []OpStats {
	t := ctx.trace.Load()
	if t == nil {
		return nil
	}
	byKey := map[entryKey]*OpStats{}
	for node := t.head.Load(); node != nil; node = node.next {
		r := &node.rec
		o := byKey[r.key]
		if o == nil {
			o = &OpStats{Key: r.Key, key: r.key, Op: r.Op, Signature: r.Signature}
			byKey[r.key] = o
		}
		switch r.Status {
		case StatusMiss:
			o.Evals++
			o.Wall += r.Wall
			o.Self += r.Self
			o.Tuples = r.Tuples
			o.Expanded = r.Expanded
			o.Assignments = r.Assignments
			r.Work.add(&o.Work)
			o.Quarantined += r.Quarantined
			o.Stages, o.ResumedFrom = r.Stages, r.ResumedFrom
			o.Goroutine = r.Goroutine
		case StatusHit:
			o.Hits++
		case StatusWait:
			o.Waits++
		}
	}
	out := make([]OpStats, 0, len(byKey))
	for _, o := range byKey {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// goid extracts the current goroutine's id from the runtime stack header
// ("goroutine 123 [running]:"). It is called once per traced evaluation —
// node granularity, not tuple granularity — so the ~µs stack capture is
// negligible, and it is never called when tracing is off.
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
	CacheHitRate     float64            `json:"cache_hit_rate"`
	PoolUtilization  float64            `json:"pool_utilization"`
	FeatureMemoRate  float64            `json:"feature_memo_hit_rate"`
	StatMergeSeconds float64            `json:"stat_merge_seconds"`
	FullEvals        int64              `json:"full_evals"`
	DeltaReuseRate   float64            `json:"delta_reuse_rate"`
	OpTimeSeconds    map[string]float64 `json:"op_time_seconds,omitempty"`
}

// Snapshot derives the JSON view from the raw counters. Call it only
// after evaluation quiesces (the same contract as reading Stats fields).
func (s *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Stats:            *s,
		StatMergeSeconds: float64(s.StatMergeNs) / 1e9,
		FullEvals:        s.NodesEvaluated - s.DeltaEvals,
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
