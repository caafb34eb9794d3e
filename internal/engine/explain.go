package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
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
			stages[i] = k.String()
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
// time, reuse-cache status, valuation-limit fallbacks, the evaluating
// worker and a prefix of the signature (the reuse key). Tracing is enabled
// on the context if it is not already on, and the plan is evaluated
// through the cache — after Execute that costs no recomputation. Nodes
// evaluated before tracing started show cache=hit with no timing.
//
// Worker ids are densified in tree order (w0, w1, ...), so runs are
// comparable even though the underlying goroutine ids differ; timing and
// worker attribution vary run to run, the counts do not.
func Explain(ctx *Context, root Node) (string, error) {
	if !ctx.Tracing() {
		ctx.StartTrace()
	}
	if _, err := Eval(ctx, root); err != nil {
		return "", err
	}
	byKey := map[entryKey]OpStats{}
	for _, o := range ctx.TraceOps() {
		byKey[o.key] = o
	}
	workers := map[int64]int{}
	var b strings.Builder
	sizes := func(n Node) (o OpStats, rows, expanded, assigns int, err error) {
		o = byKey[entryKey{mode: ctx.mode.Load(), node: n.ID()}]
		if o.Evals > 0 {
			return o, o.Tuples, o.Expanded, o.Assignments, nil
		}
		// Evaluated before tracing started: sizes come from the cached
		// table itself.
		t, err := Eval(ctx, n)
		if err != nil {
			return o, 0, 0, 0, err
		}
		return o, len(t.Tuples), t.NumExpandedTuples(), t.NumAssignments(), nil
	}
	var walk func(n Node, depth int) error
	walk = func(n Node, depth int) error {
		o, rows, expanded, assigns, err := sizes(n)
		if err != nil {
			return err
		}
		cache := "hit"
		wall, self := "-", "-"
		worker := "-"
		if o.Evals > 0 {
			cache = "miss"
			wall = o.Wall.Round(time.Microsecond).String()
			self = o.Self.Round(time.Microsecond).String()
			id, ok := workers[o.Goroutine]
			if !ok {
				id = len(workers)
				workers[o.Goroutine] = id
			}
			worker = fmt.Sprintf("w%d", id)
		}
		if hits := o.Hits + o.Waits; hits > 0 {
			cache += fmt.Sprintf("+%dhit", hits)
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
			_, in, _, _, err := sizes(run.parent)
			if err != nil {
				return err
			}
			extra += fmt.Sprintf(" stages=%d in=%d", len(run.cons), in)
			if o.Evals > 0 && o.ResumedFrom >= 0 {
				extra += fmt.Sprintf(" resumed=%d", o.ResumedFrom)
			}
		}
		sig := n.Signature()
		if len(sig) > 44 {
			sig = sig[:44] + "…"
		}
		fmt.Fprintf(&b, "%-36s %6d rows %8d exp %8d asg %10s self %10s  cache=%-9s %-3s%s  sig=%s\n",
			strings.Repeat("  ", depth)+opName(n), rows, expanded, assigns,
			wall, self, cache, worker, extra, sig)
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
	// Hot-path footer: feature-memo effectiveness and what the batched
	// stat merging cost. Both are scheduling-dependent (unlike the counts
	// in the tree above) and meant for eyeballing, not diffing. Counters
	// are loaded atomically: Explain may run concurrently with evaluation.
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
		for _, o := range byKey {
			if o.Stages > 0 && o.Evals > 0 {
				runs, stages = runs+1, stages+o.Stages
				if o.ResumedFrom >= 0 {
					resumed, covered = resumed+1, covered+o.ResumedFrom
				}
			}
		}
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
		fmt.Fprintf(&b, "delta evals: %d nodes, %d tuples reused / %d recomputed (%.1f%% reuse), %d tables adopted (%d unrun)\n",
			deltas, reused, recomputed, rate,
			atomic.LoadInt64(&ctx.Stats.TablesAdopted), atomic.LoadInt64(&ctx.Stats.AdoptedUnrun))
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
