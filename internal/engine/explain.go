package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// opName returns a short operator label for plan rendering, mirroring the
// operator vocabulary of Figure 4 (σ for selections, × for joins, ψ for
// the annotation operator).
func opName(n Node) string {
	switch t := n.(type) {
	case *scanNode:
		return fmt.Sprintf("scan %s", t.pred)
	case *fromNode:
		return fmt.Sprintf("from(%s → %s)", t.inVar, t.outVar)
	case *constraintNode:
		stages := make([]string, len(t.cons))
		for i, k := range t.cons {
			stages[i] = fmt.Sprintf("%s(%s)=%q", k.Feature.Name(), t.attr, k.Value)
		}
		return fmt.Sprintf("σ[%s]", strings.Join(stages, " ∧ "))
	case *compareNode:
		return fmt.Sprintf("σ[%s]", t.cmp)
	case *funcNode:
		return fmt.Sprintf("σ[%s(...)]", t.fname)
	case *crossNode:
		if len(t.shared) > 0 {
			return fmt.Sprintf("⋈[%s]", strings.Join(t.shared, ","))
		}
		return "×"
	case *simJoinNode:
		return fmt.Sprintf("⋈~[%s(%s,%s)]", t.fname, t.leftVar, t.rightVar)
	case *unionNode:
		return "∪"
	case *projectNode:
		return fmt.Sprintf("π[%s]", strings.Join(t.outCols, ","))
	case *annotateNode:
		parts := []string{}
		if t.exists {
			parts = append(parts, "?")
		}
		for _, a := range t.annotate {
			parts = append(parts, "<"+a+">")
		}
		return fmt.Sprintf("ψ[%s]", strings.Join(parts, " "))
	case *procNode:
		return fmt.Sprintf("proc %s", t.pname)
	default:
		return n.Signature()
	}
}

// PlanString renders the plan tree with indentation, one operator per
// line — the textual equivalent of the paper's Figure 4.c execution plan.
func PlanString(root Node) string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		fmt.Fprintf(&b, "%s%s  (%s)\n", strings.Repeat("  ", depth), opName(n), strings.Join(n.Columns(), ","))
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// String renders the whole plan (see PlanString).
func (p *Plan) String() string { return PlanString(p.Root) }

// CountNodes returns how many operators the plan tree contains (shared
// subtrees counted once per occurrence).
func CountNodes(root Node) int {
	n := 1
	for _, c := range root.Children() {
		n += CountNodes(c)
	}
	return n
}

// Explain renders an EXPLAIN ANALYZE-style tree for the plan: one line
// per operator with output sizes, wall time (inputs included) and self
// time, reuse-cache status, valuation-limit fallbacks and a prefix of the
// signature (the reuse key). Each line is the trace of the node's cache
// entry: the evaluation that built it and the requests it served since.
// The plan is evaluated through the cache first — after Execute that costs
// no recomputation; a node whose entry was evicted is evaluated again, and
// its line shows that evaluation. Timing varies run to run, the counts do
// not.
func Explain(ctx *Context, root Node) (string, error) {
	if _, err := Eval(ctx, root); err != nil {
		return "", err
	}
	// trace returns n's entry's trace, evaluating n when it has none;
	// traced is false when the evaluation left no entry (a fired
	// cancellation).
	trace := func(n Node) (o OpStats, traced bool, err error) {
		key := entryKey{mode: ctx.mode.Load(), node: n.ID()}
		resident := func() bool {
			ctx.mu.Lock()
			defer ctx.mu.Unlock()
			e := ctx.lookupLocked(key)
			if e != nil && e.table != nil {
				o = e.opStatsLocked()
			}
			return e != nil && e.table != nil
		}
		if resident() {
			return o, true, nil
		}
		t, err := Eval(ctx, n)
		if err != nil || resident() {
			return o, err == nil, err
		}
		o.Tuples, o.Expanded, o.Assignments = len(t.Tuples), t.NumExpandedTuples(), t.NumAssignments()
		return o, false, nil
	}
	var b strings.Builder
	var walk func(n Node, depth int) error
	walk = func(n Node, depth int) error {
		o, traced, err := trace(n)
		if err != nil {
			return err
		}
		wall, self := "-", "-"
		if traced {
			wall = o.Wall.Round(time.Microsecond).String()
			self = o.Self.Round(time.Microsecond).String()
		}
		cache := "miss"
		if o.Served > 0 {
			cache += fmt.Sprintf("+%dhit", o.Served)
		}
		extra := ""
		if o.LimitFallbacks > 0 {
			extra = fmt.Sprintf(" fallbacks=%d", o.LimitFallbacks)
		}
		if o.TuplesReused > 0 {
			extra += fmt.Sprintf(" reused=%d", o.TuplesReused)
		}
		if o.Quarantined > 0 {
			extra += fmt.Sprintf(" quarantined=%d", o.Quarantined)
		}
		if o.SimTuplePairs > 0 {
			extra += fmt.Sprintf(" sim=%d/%d/%d", o.SimTuplePairs, o.SimValuePairsProbed, o.SimValuePairsVerified)
		}
		if run, ok := n.(*constraintNode); ok {
			// A run is one line for all its stages: say how many, how many
			// rows went in, and behind how many stages a predecessor let the
			// replayed tuples resume.
			in, _, err := trace(run.parent)
			if err != nil {
				return err
			}
			extra += fmt.Sprintf(" stages=%d in=%d", len(run.cons), in.Tuples)
			if traced && o.ResumedFrom >= 0 {
				extra += fmt.Sprintf(" resumed=%d", o.ResumedFrom)
			}
		}
		sig := n.Signature()
		if len(sig) > 44 {
			// Cut at a rune boundary: the signature quotes constraint values.
			cut := 44
			for !utf8.RuneStart(sig[cut]) {
				cut--
			}
			sig = sig[:cut] + "…"
		}
		fmt.Fprintf(&b, "%-36s %6d rows %8d exp %8d asg %10s self %10s  cache=%-9s%s  sig=%s\n",
			strings.Repeat("  ", depth)+opName(n), o.Tuples, o.Expanded, o.Assignments,
			wall, self, cache, extra, sig)
		for _, c := range n.Children() {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 0); err != nil {
		return "", err
	}
	// Footer: context-wide counters. The feature-memo hit split is
	// scheduling-dependent (unlike the counts in the tree above) and meant
	// for eyeballing, not diffing. Counters are loaded atomically: Explain
	// may run concurrently with evaluation.
	hits := atomic.LoadInt64(&ctx.Stats.FeatureMemoHits)
	misses := atomic.LoadInt64(&ctx.Stats.FeatureMemoMisses)
	if total := hits + misses; total > 0 {
		fmt.Fprintf(&b, "feature memo: %d/%d hits (%.1f%%)\n",
			hits, total, 100*float64(hits)/float64(total))
	}
	if pairs := atomic.LoadInt64(&ctx.Stats.SimTuplePairs); pairs > 0 {
		fmt.Fprintf(&b, "similarity: %d tuple pairs, %d value pairs probed, %d verified\n", pairs,
			atomic.LoadInt64(&ctx.Stats.SimValuePairsProbed), atomic.LoadInt64(&ctx.Stats.SimValuePairsVerified))
	}
	if parsed := atomic.LoadInt64(&ctx.Stats.CmpOperandsParsed); parsed > 0 {
		fmt.Fprintf(&b, "comparisons: %d operands parsed\n", parsed)
	}
	if computed := atomic.LoadInt64(&ctx.Stats.ConstraintStages); computed > 0 {
		var runs, stages, resumed, covered int
		ctx.mu.Lock()
		for _, e := range ctx.cache {
			if run, ok := e.node.(*constraintNode); ok {
				runs, stages = runs+1, stages+len(run.cons)
				if e.trace.resumedFrom >= 0 {
					resumed, covered = resumed+1, covered+e.trace.resumedFrom
				}
			}
		}
		ctx.mu.Unlock()
		fmt.Fprintf(&b, "constraints: %d stages computed; %d runs traced (%d stages), %d resumed (behind %d stages)\n",
			computed, runs, stages, resumed, covered)
	}
	if deltas := atomic.LoadInt64(&ctx.Stats.DeltaEvals); deltas > 0 {
		reused := atomic.LoadInt64(&ctx.Stats.TuplesReused)
		recomputed := atomic.LoadInt64(&ctx.Stats.TuplesRecomputed)
		rate := 0.0
		if total := reused + recomputed; total > 0 {
			rate = 100 * float64(reused) / float64(total)
		}
		fmt.Fprintf(&b, "delta evals: %d nodes, %d tuples reused / %d recomputed (%.1f%% reuse), %d tables adopted\n",
			deltas, reused, recomputed, rate, atomic.LoadInt64(&ctx.Stats.TablesAdopted))
	}
	bytes, entries := ctx.CacheInfo()
	fmt.Fprintf(&b, "reuse cache: %d entries, ~%d bytes", entries, bytes)
	if ev := atomic.LoadInt64(&ctx.Stats.CacheEvictions) + atomic.LoadInt64(&ctx.Stats.BlockIdxEvictions); ev > 0 {
		fmt.Fprintf(&b, ", %d evicted", ev)
	}
	fmt.Fprintf(&b, "; document records ~%d bytes\n", ctx.Env.FeatureMemo.Bytes())
	rep := ctx.DegradedReport()
	if rep != nil && len(rep.Quarantined) > 0 {
		// The first documents by ID (the report sorts them), not the first
		// barred, which depends on scheduling.
		const maxShown = 8
		var ids []string
		for _, r := range rep.Quarantined {
			if len(ids) == maxShown {
				ids = append(ids, "...")
				break
			}
			ids = append(ids, fmt.Sprintf("%s (%s: %s)", r.Doc, r.Op, r.Cause))
		}
		fmt.Fprintf(&b, "quarantine: %d docs, %d events, %d retries, %d restarts: %s\n",
			atomic.LoadInt64(&ctx.Stats.QuarantinedDocs),
			atomic.LoadInt64(&ctx.Stats.QuarantineEvents),
			atomic.LoadInt64(&ctx.Stats.QuarantineRetries),
			atomic.LoadInt64(&ctx.Stats.EvalRestarts),
			strings.Join(ids, "; "))
	}
	if rep != nil && rep.DeadlineExpired {
		fmt.Fprintf(&b, "degraded: %s\n", rep.Summary())
	}
	return b.String(), nil
}
