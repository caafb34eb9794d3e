// Package opt holds the session-facing side of the cost-based plan
// optimizer: a cost model seeded from the engine's static defaults and
// refined online from the session's own execution statistics (per-node
// observed cardinalities, Stats.Snapshot per-operator timings, trace
// aggregates), plus the Optimize entry point sessions and CLIs call
// between Compile and Execute.
//
// The split matters for determinism: rewrite DECISIONS are made by the
// engine's rewrite pass from plan structure and static estimates alone;
// everything this package refines online only changes the cost numbers
// REPORTED in explain trees and benches. That is what keeps optimized
// plans byte-identical across worker counts and delta settings even
// though the model keeps learning (see DESIGN.md §13).
package opt

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"iflex/internal/engine"
)

// Model is a concurrency-safe cost model implementing engine.Coster.
// Zero value is not usable; construct with NewModel.
type Model struct {
	mu   sync.Mutex
	unit map[engine.OpKind]float64 // ns per unit of work
	sel  map[engine.OpKind]float64 // output/input row ratio
	rows map[engine.NodeID]int64
	// refined counts how many online refinements were folded in.
	refined int
}

// NewModel returns a model seeded from the engine's static defaults.
func NewModel() *Model {
	m := &Model{
		unit: map[engine.OpKind]float64{},
		sel:  map[engine.OpKind]float64{},
		rows: map[engine.NodeID]int64{},
	}
	for _, k := range engine.AllOpKinds() {
		m.unit[k] = engine.DefaultUnitCost(k)
		m.sel[k] = engine.DefaultSelectivity(k)
	}
	return m
}

// UnitCost implements engine.Coster.
func (m *Model) UnitCost(k engine.OpKind) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.unit[k]
}

// Selectivity implements engine.Coster. Selectivities stay at their
// static defaults: they feed rewrite decisions, so refining them online
// would make plan choice depend on execution history.
func (m *Model) Selectivity(k engine.OpKind) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sel[k]
}

// ObservedRows implements engine.Coster: observed output cardinality of
// a node, if one was adopted.
func (m *Model) ObservedRows(id engine.NodeID) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows, ok := m.rows[id]
	return rows, ok
}

// AdoptRows folds a Context.ObservedRows snapshot into the model.
// Sessions call this once per iteration, after the base execution and
// before any trial is optimized, so all trials of the iteration see one
// frozen, scheduling-independent view.
func (m *Model) AdoptRows(obs map[engine.NodeID]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range obs {
		m.rows[k] = v
	}
}

// refineUnit nudges one kind's unit cost toward an observation with an
// exponential moving average — robust to noisy single runs.
func (m *Model) refineUnit(k engine.OpKind, nsPerUnit float64) {
	if nsPerUnit <= 0 {
		return
	}
	const alpha = 0.3
	m.unit[k] = (1-alpha)*m.unit[k] + alpha*nsPerUnit
}

// RefineFromSnapshot refines unit costs from a Stats.Snapshot: each
// operator kind's accumulated wall time is divided by the run's total
// tuple throughput. The denominator is global (the snapshot has no
// per-kind tuple counts), so this is a coarse calibration — ObserveTrace
// gives per-operator precision when a trace is available.
func (m *Model) RefineFromSnapshot(s engine.StatsSnapshot) {
	if s.TuplesBuilt <= 0 || len(s.OpTimeSeconds) == 0 {
		return
	}
	byName := map[string]engine.OpKind{}
	for _, k := range engine.AllOpKinds() {
		byName[k.String()] = k
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, secs := range s.OpTimeSeconds {
		k, ok := byName[name]
		if !ok || secs <= 0 {
			continue
		}
		m.refineUnit(k, secs*1e9/float64(s.TuplesBuilt))
	}
	m.refined++
}

// ObserveTrace refines unit costs from per-operator trace aggregates:
// ns of evaluation wall time per output tuple, aggregated per kind.
func (m *Model) ObserveTrace(ops []engine.OpStats) {
	type acc struct {
		ns     float64
		tuples float64
	}
	byOp := map[string]*acc{}
	for _, o := range ops {
		if o.Evals == 0 || o.Tuples == 0 {
			continue
		}
		a := byOp[o.Op]
		if a == nil {
			a = &acc{}
			byOp[o.Op] = a
		}
		a.ns += float64(o.Wall.Nanoseconds())
		a.tuples += float64(o.Tuples)
	}
	kinds := map[string]engine.OpKind{}
	for _, k := range engine.AllOpKinds() {
		kinds[k.String()] = k
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for op, a := range byOp {
		// Trace op labels are rendered operator names ("scan docs",
		// "σ[...]"); map them onto kinds by prefix vocabulary.
		k, ok := kindForLabel(op, kinds)
		if !ok || a.tuples == 0 {
			continue
		}
		m.refineUnit(k, a.ns/a.tuples)
	}
	m.refined++
}

// kindForLabel maps a rendered operator label to its OpKind.
func kindForLabel(label string, kinds map[string]engine.OpKind) (engine.OpKind, bool) {
	switch {
	case strings.HasPrefix(label, "scan "):
		return kinds["scan"], true
	case strings.HasPrefix(label, "from("):
		return kinds["from"], true
	case strings.HasPrefix(label, "proc "):
		return kinds["proc"], true
	case strings.HasPrefix(label, "⋈~"):
		return kinds["simjoin"], true
	case strings.HasPrefix(label, "⋈") || label == "×":
		return kinds["cross"], true
	case label == "∪":
		return kinds["union"], true
	case strings.HasPrefix(label, "π"):
		return kinds["project"], true
	case strings.HasPrefix(label, "ψ"):
		return kinds["annotate"], true
	case strings.HasPrefix(label, "σ["):
		inner := strings.TrimPrefix(label, "σ[")
		switch {
		case strings.Contains(inner, "(...)"):
			return kinds["pfunc"], true
		case strings.ContainsAny(inner, "<>=≠"):
			return kinds["compare"], true
		default:
			return kinds["constrain"], true
		}
	}
	return 0, false
}

// Report renders the model's current state for diagnostics.
func (m *Model) Report() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "cost model: %d refinements, %d observed cardinalities\n", m.refined, len(m.rows))
	kinds := engine.AllOpKinds()
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-10s unit=%.0fns sel=%.2f\n", k.String(), m.unit[k], m.sel[k])
	}
	return b.String()
}

// Optimize rewrites a compiled plan under the model (nil model uses the
// engine's static defaults).
func Optimize(p *engine.Plan, env *engine.Env, m *Model) *engine.Plan {
	var c engine.Coster
	if m != nil {
		c = m
	}
	return engine.OptimizePlan(p, env, engine.OptOptions{Coster: c})
}
