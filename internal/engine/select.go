package engine

import (
	"fmt"
	"strings"
	"sync"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/text"
)

// filterOutcome is the result of applying a predicate to one compact tuple
// with superset semantics.
type filterOutcome struct {
	keep     bool
	sure     bool                 // every valuation satisfies, precisely
	repl     map[int]compact.Cell // replacement cells for filtered expansion columns
	fallback bool                 // kept conservatively: enumeration exceeded Limits
}

// filterScratch pools the per-call working set of the tuple filters: the
// value lists, satisfied flags, odometer positions and argument list of
// filterTupleF, and the stitched operand records of compareFilter. One
// scratch serves one call at a time (callers never hold it across
// predicate evaluations of other tuples).
type filterScratch struct {
	vals [][]text.Span
	sat  [][]bool
	idx  []int
	args []text.Span
	ops  [2][]operand
}

var scratchPool = sync.Pool{New: func() any { return &filterScratch{} }}

// grow resizes the scratch for n involved columns, reusing inner slices.
func (sc *filterScratch) grow(n int) {
	for len(sc.vals) < n {
		sc.vals = append(sc.vals, nil)
		sc.sat = append(sc.sat, nil)
	}
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
		sc.args = make([]text.Span, n)
	}
}

// resized returns s with n zero elements, reusing its storage.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// filterTupleF evaluates an opaque p-function over one compact tuple
// (Section 4.1) with superset semantics, one call (counted into batch as
// FuncCalls) per combination of the involved cells' values:
//
//   - keep the tuple if any valuation satisfies; mark it maybe unless all do
//   - expansion cells stand for one tuple per value, so their values are
//     filtered down to those participating in a satisfying valuation
//   - when value enumeration exceeds the limits, fall back to keeping the
//     tuple as maybe — conservative but superset-safe
//
// The odometer short-circuits once the keep/maybe verdict is decided and
// every expansion column's satisfied-set is saturated. Comparisons and
// declared token similarities are decided by filters of their own over
// per-value records (compareFilter, tokenSim.filter), which reproduce these
// outcomes and are tested against them.
func filterTupleF(tp compact.Tuple, involved []int, fn Func, lim Limits, batch *statBatch) (filterOutcome, error) {
	sc := scratchPool.Get().(*filterScratch)
	defer scratchPool.Put(sc)
	sc.grow(len(involved))
	conservative := filterOutcome{keep: true, fallback: true}

	// Enumerate the value list of each involved cell, bailing out to the
	// conservative outcome when any single cell, or the product, is too
	// large.
	vals := sc.vals[:len(involved)]
	for i, ci := range involved {
		cell := tp.Cells[ci]
		if cell.NumValues() > lim.MaxCellValues {
			return conservative, nil
		}
		vs := vals[i][:0]
		cell.Values(func(s text.Span) bool {
			vs = append(vs, s)
			return true
		})
		if len(vs) == 0 {
			return filterOutcome{keep: false}, nil
		}
		vals[i] = vs
	}
	combos := 1
	for i := range involved {
		if combos *= len(vals[i]); combos > lim.MaxValuations {
			return conservative, nil
		}
	}

	// Only the satisfied-sets of expansion columns matter for output
	// filtering, so saturation is tracked on them alone.
	satRemaining := 0
	for i, ci := range involved {
		if tp.Cells[ci].Expand {
			sc.sat[i] = resized(sc.sat[i], len(vals[i]))
			satRemaining += len(vals[i])
		} else {
			sc.sat[i] = nil
		}
	}

	idx, args := sc.idx[:len(involved)], sc.args[:len(involved)]
	clear(idx)
	anySat, allSat := false, true
	for {
		for i, j := range idx {
			args[i] = vals[i][j]
		}
		batch.FuncCalls++
		ok, err := fn(args)
		if err != nil {
			return filterOutcome{}, err
		}
		if ok {
			anySat = true
			for i, j := range idx {
				if sc.sat[i] != nil && !sc.sat[i][j] {
					sc.sat[i][j] = true
					satRemaining--
				}
			}
		} else {
			allSat = false
		}
		// Short-circuit: once some valuation satisfies, some fails, and every
		// expansion value's fate is decided, remaining combinations cannot
		// change the outcome.
		if anySat && !allSat && satRemaining == 0 {
			break
		}
		// advance the odometer
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(vals[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	switch {
	case !anySat:
		return filterOutcome{keep: false}, nil
	case allSat:
		return filterOutcome{keep: true, sure: true}, nil
	}
	return finishRepl(filterOutcome{keep: true}, tp, involved, sc.sat)
}

// finishRepl rebuilds filtered expansion cells: values with no satisfying
// valuation (pass[i][j] == false) denote expanded tuples that certainly
// fail, so they are dropped. Non-expansion cells are left untouched.
func finishRepl(out filterOutcome, tp compact.Tuple, involved []int, pass [][]bool) (filterOutcome, error) {
	for i, ci := range involved {
		cell := tp.Cells[ci]
		if !cell.Expand {
			continue
		}
		var kept []text.Assignment
		j := 0
		changed := false
		for _, a := range cell.Assigns {
			n := a.NumValues()
			allKept, noneKept := true, true
			for v := 0; v < n; v++ {
				if pass[i][j+v] {
					noneKept = false
				} else {
					allKept = false
				}
			}
			if allKept {
				kept = append(kept, a)
			} else {
				changed = true
				if !noneKept {
					v := 0
					row := pass[i]
					base := j
					a.Values(func(s text.Span) bool {
						if row[base+v] {
							kept = append(kept, text.ExactOf(s))
						}
						v++
						return true
					})
				}
			}
			j += n
		}
		if len(kept) == 0 {
			return filterOutcome{keep: false}, nil
		}
		if changed {
			if out.repl == nil {
				out.repl = map[int]compact.Cell{}
			}
			out.repl[ci] = compact.Cell{Assigns: kept, Expand: true}
		}
	}
	return out, nil
}

// tupleFilter decides one tuple of a selection; counters go to batch.
type tupleFilter func(tp compact.Tuple, batch *statBatch) (filterOutcome, error)

// applyFilter runs a tuple filter over a whole table, producing the selected
// table with maybe flags and expansion-cell filtering applied. Tuples are
// independent, so the loop fans out; the filter must therefore be safe for
// concurrent calls (the built-in p-functions and comparison operands are
// pure). A selection keeps no per-tuple memo, with delta evaluation on or
// off: comparison operands are kept per document (Env.FeatureMemo), and
// deciding a tuple again costs no more than finding a memoised outcome
// would, while the memo's bytes would stay resident with the table.
func applyFilter(ctx *Context, ev *EvalTrace, in *compact.Table, involved []int, filter tupleFilter) (*compact.Table, error) {
	op := tupleOp{site: "pfunc", minChunk: minChunkFilter}
	op.open = func(batch *statBatch) decideFn {
		return func(tp compact.Tuple, _ *deltaOut) (deltaOut, bool, bool, error) {
			var res filterOutcome
			qed := ctx.guard(ev, op.site, tp, involved, func() error {
				var ferr error
				res, ferr = filter(tp, batch)
				return ferr
			})
			if qed {
				return deltaOut{}, false, true, nil
			}
			o := deltaOut{filt: &res}
			if res.fallback {
				o.fallbacks = 1
			}
			return o, false, false, nil
		}
	}
	op.emit = func(dst []compact.Tuple, tp compact.Tuple, o *deltaOut) []compact.Tuple {
		if !o.filt.keep {
			return dst
		}
		if len(o.filt.repl) == 0 && (o.filt.sure || tp.Maybe) {
			return append(dst, tp) // nothing narrowed: the row is the input's
		}
		nt := tp.Copy()
		for ci, cell := range o.filt.repl {
			nt.Cells[ci] = cell
		}
		if !o.filt.sure {
			nt.Maybe = true
		}
		return append(dst, nt)
	}
	return ctx.tupleLoop(ev, nil, in, in.Cols, op)
}

// compareNode is a selection with a comparison condition, e.g. p > 500000.
type compareNode struct {
	ident
	parent Node
	cmp    alog.Compare
}

func newCompareNode(env *Env, parent Node, cmp alog.Compare) *compareNode {
	k := nodeKey{head: "select[" + cmp.String() + "]", l: parent.ID()}
	if n := env.nodes.get(k); n != nil {
		return n.(*compareNode)
	}
	return env.nodes.put(k, &compareNode{parent: parent, cmp: cmp}, parent).(*compareNode)
}

func (n *compareNode) Columns() []string { return n.parent.Columns() }

// constTerm resolves a non-variable comparison term to its operand.
func constTerm(t alog.Term) operand {
	switch t.Kind {
	case alog.TermNum:
		return operand{IsNum: true, Num: t.Num}
	case alog.TermStr:
		return operand{Str: t.Str}
	}
	return operand{IsNull: true}
}

func (n *compareNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, ins []*compact.Table) (*compact.Table, error) {
	in := ins[0]
	f := newCompareFilter(n.cmp, in.Cols, ctx.Env.Limits, ctx.Env.FeatureMemo)
	if len(f.involved) == 0 {
		// const ⋈ const: one evaluation decides every tuple.
		ok, err := f.compare(f.konst[0][0], f.konst[1][0])
		if err != nil {
			return nil, err
		}
		out := compact.NewTable(in.Cols...)
		if ok {
			out.Tuples = append(out.Tuples, in.Tuples...)
		}
		return out, nil
	}
	return applyFilter(ctx, ev, in, f.involved, f.filter)
}

// compareOperands implements the comparison semantics: NULL equals only
// NULL and is ordered below everything; numbers compare numerically;
// otherwise strings compare lexically.
func compareOperands(op alog.CompareOp, a, b operand) (bool, error) {
	if a.IsNull || b.IsNull {
		eq := a.IsNull && b.IsNull
		switch op {
		case alog.OpEQ:
			return eq, nil
		case alog.OpNE:
			return !eq, nil
		default:
			return false, nil // ordering with NULL never holds
		}
	}
	var c int
	if a.IsNum && b.IsNum {
		switch {
		case a.Num < b.Num:
			c = -1
		case a.Num > b.Num:
			c = 1
		}
	} else if !a.IsNum && !b.IsNum {
		c = strings.Compare(a.Str, b.Str)
	} else {
		// Mixed number/string never compares equal and has no order.
		if op == alog.OpNE {
			return true, nil
		}
		return false, nil
	}
	switch op {
	case alog.OpLT:
		return c < 0, nil
	case alog.OpLE:
		return c <= 0, nil
	case alog.OpGT:
		return c > 0, nil
	case alog.OpGE:
		return c >= 0, nil
	case alog.OpEQ:
		return c == 0, nil
	case alog.OpNE:
		return c != 0, nil
	}
	return false, fmt.Errorf("engine: unknown comparison operator %q", op)
}

// funcNode is a selection with a boolean p-function condition, e.g.
// approxMatch(h, s).
type funcNode struct {
	ident
	parent Node
	fname  string
	args   []alog.Term
}

func newFuncNode(env *Env, parent Node, fname string, args []alog.Term) *funcNode {
	strs := make([]string, len(args))
	for i, a := range args {
		strs[i] = a.String()
	}
	k := nodeKey{head: "pfunc[" + fname + "(" + strings.Join(strs, ",") + ")]", l: parent.ID()}
	if n := env.nodes.get(k); n != nil {
		return n.(*funcNode)
	}
	return env.nodes.put(k, &funcNode{parent: parent, fname: fname, args: args}, parent).(*funcNode)
}

func (n *funcNode) Columns() []string { return n.parent.Columns() }

func (n *funcNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, ins []*compact.Table) (*compact.Table, error) {
	pf, ok := ctx.Env.Funcs[n.fname]
	if !ok {
		return nil, fmt.Errorf("engine: p-function %q not bound", n.fname)
	}
	in := ins[0]
	involved := make([]int, 0, len(n.args))
	for _, a := range n.args {
		if a.Kind != alog.TermVar {
			return nil, fmt.Errorf("engine: p-function %s: only variable arguments are supported, got %s", n.fname, a)
		}
		involved = append(involved, colIndex(in.Cols, a.Var))
	}
	// A binary p-function that declares its token similarity is decided on
	// interned token records, each value tokenised once per tuple, with the
	// value-level probe instead of the valuation odometer (tokensim.go).
	// Without a join's right side to rank rarity on, probe keys order by
	// token string.
	if pf.Token != nil && len(involved) == 2 {
		sim := &tokenSim{ctx: ctx, spec: *pf.Token}
		lim := ctx.Env.Limits
		return applyFilter(ctx, ev, in, involved, func(tp compact.Tuple, batch *statBatch) (filterOutcome, error) {
			var sc simScratch
			return sim.filter(tp, involved, lim,
				func() *cellTokens { return sim.cellTokens(tp.Cells[involved[0]], true, &sc) },
				func() *cellTokens { return sim.cellTokens(tp.Cells[involved[1]], false, &sc) },
				&sc, batch)
		})
	}
	// A p-function the engine knows nothing about: the function itself over
	// every combination of argument values.
	lim := ctx.Env.Limits
	return applyFilter(ctx, ev, in, involved, func(tp compact.Tuple, batch *statBatch) (filterOutcome, error) {
		return filterTupleF(tp, involved, pf.Fn, lim, batch)
	})
}
