package engine

import (
	"sync/atomic"
	"time"
)

// This file is the engine's observability layer. Every cache entry
// carries the trace of the evaluation that built it (EvalTrace): its loop
// counters and quarantine count, where a run resumed, wall and self time,
// and the requests the entry has served since — hits counted under ctx.mu
// on the hit path, waits through the in-flight record that leads to it.
// Nothing is
// rendered while evaluating: Explain reads the entries of a plan's nodes,
// and output sizes and a run's stages come from each entry's table and
// node. So the trace is always
// on, costs no map and no lock of its own, and lives as long as its entry:
// an evicted entry takes its trace with it, and an evaluation that is not
// cached (a cut or an error) leaves none. The counts (output sizes, the
// det counters of Work, requests served) are identical at any worker
// count — the same determinism guarantee the evaluator itself makes —
// while wall and self time vary run to run.

// OpKind is a plan node's operator, which its constructor declares when the
// node is interned; it buckets the per-operator time histogram in
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
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"scan", "from", "cross", "simjoin", "union", "project",
	"annotate", "constrain", "compare", "pfunc", "proc",
}

func (k OpKind) String() string { return opKindNames[k] }

// EvalTrace is the trace of one evaluation, kept on the cache entry the
// evaluation builds. Operator loops may run chunks of one evaluation on
// several pool goroutines at once, so work, quarantined and stageAsg are
// updated atomically until the evaluation returns; served moves under
// ctx.mu. A nil *EvalTrace is valid for an
// operator and discards per-eval attribution (the context-wide Stats
// totals are still maintained).
type EvalTrace struct {
	// work is this evaluation's share of the loop counters: each chunk's
	// statBatch merges into it as it merges into Stats. A successor that
	// adopts the entry unrun recharges its LimitFallbacks.
	work        Work
	quarantined atomic.Int64
	// stageAsg totals, for a constraint run, the assignments of the stage
	// tables it did not build (SumAssignments); a successor that adopts the
	// entry unrun carries it over.
	stageAsg atomic.Int64
	// resumedFrom is set once by a constraint run, after its chunks have
	// joined: the stages its delta predecessor covered (-1 = none).
	resumedFrom int
	// wall is the evaluation's time, inputs included; self the operator's
	// alone.
	wall, self time.Duration
	// served counts the requests the entry answered and those that waited
	// for the evaluation in flight.
	served int64
}

// quarantine attributes n quarantined per-document units to this
// evaluation (the context-wide totals are counted by quarantineDocs).
// A nil receiver discards the count.
func (ev *EvalTrace) quarantine(n int64) {
	if ev != nil && n != 0 {
		ev.quarantined.Add(n)
	}
}

// OpStats is one resident result entry's trace as Explain reads it.
type OpStats struct {
	Served      int64         // requests answered by the entry or its evaluation
	Wall        time.Duration // evaluation time, inputs included
	Self        time.Duration // time in the operator alone
	Tuples      int           // output compact tuples
	Expanded    int           // output expanded tuples
	Assignments int           // output assignments
	Work                      // loop counters of the evaluation
	Quarantined int64         // per-document units dropped into quarantine
	Stages      int           // stages of a constraint run (0 otherwise)
	ResumedFrom int           // stages its predecessor covered, -1 = none
}

// opStatsLocked reads e's trace, its table's sizes and its run's stages.
// Callers hold ctx.mu.
func (e *cacheEntry) opStatsLocked() OpStats {
	tr := &e.trace
	o := OpStats{
		Served: tr.served, Wall: tr.wall, Self: tr.self,
		Tuples: len(e.table.Tuples), Expanded: e.table.NumExpandedTuples(), Assignments: e.table.NumAssignments(),
		Work: tr.work, Quarantined: tr.quarantined.Load(), ResumedFrom: tr.resumedFrom,
	}
	if run, ok := e.node.(*constraintNode); ok {
		o.Stages = len(run.cons)
	}
	return o
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
