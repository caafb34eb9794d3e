package engine

import (
	"fmt"

	"iflex/internal/compact"
	"iflex/internal/text"
)

// procNode evaluates a procedural p-predicate over a compact table
// (Section 4.1): each compact tuple is expanded (expansion cells become
// separate tuples), the possible input values are enumerated, the
// procedure is invoked per value, and its outputs become exact cells.
// Output tuples are maybe when the input tuple represented more than one
// possible tuple or was itself maybe.
type procNode struct {
	ident
	parent  Node
	pname   string
	inVar   string
	outVars []string
	cols    []string
}

func newProcNode(env *Env, parent Node, pname, inVar string, outVars []string) *procNode {
	h := cat(catList(cat(make([]byte, 0, headCap), "proc[", pname, "(", inVar, "->"), outVars), ")]")
	return env.nodes.intern(h, OpProc, func() Node {
		cols := append(append([]string(nil), parent.Columns()...), outVars...)
		return &procNode{parent: parent, pname: pname, inVar: inVar, outVars: outVars, cols: cols}
	}, parent).(*procNode)
}

func (n *procNode) Columns() []string { return n.cols }

func (n *procNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, ins []*compact.Table) (*compact.Table, error) {
	proc, ok := ctx.Env.Procs[n.pname]
	if !ok {
		return nil, fmt.Errorf("engine: procedure %q not bound", n.pname)
	}
	if proc.Outputs != len(n.outVars) {
		return nil, fmt.Errorf("engine: procedure %s produces %d outputs but rule binds %d", n.pname, proc.Outputs, len(n.outVars))
	}
	in := ins[0]
	ci := colIndex(in.Cols, n.inVar)
	lim := ctx.Env.limits
	// Procedures are opaque user code: one serial chunk, nothing memoised.
	// rows is that chunk's scratch: decide builds one tuple's rows into it
	// and emit commits them.
	var rows []compact.Tuple
	op := tupleOp[noOut]{site: "proc"}
	op.open = func(*statBatch) decideFn[noOut] {
		return func(tp compact.Tuple, _ *noOut) (noOut, bool, bool, error) {
			cell := tp.Cells[ci]
			if cell.NumValues() > lim.MaxCellValues {
				// An engine limit, not a document fault: quarantining here would
				// hide a program that needs an extra constraint, so it stays
				// fatal.
				return noOut{}, false, false, fmt.Errorf("engine: procedure %s: input cell encodes %d values, over the limit %d; constrain the attribute first",
					n.pname, cell.NumValues(), lim.MaxCellValues)
			}
			// Per Section 4.1, outputs are maybe when the (expansion-free) input
			// tuple stands for more than one possible tuple: expansion cells
			// contribute separate tuples, so only plain multi-value cells count.
			multi := false
			for _, c := range tp.Cells {
				if !c.Expand && c.NumValues() > 1 {
					multi = true
					break
				}
			}
			// The tuple's whole value enumeration is one guarded unit: the rows
			// are committed only when every procedure call succeeded, which
			// keeps a retried attempt idempotent. A row of the wrong arity
			// breaks the procedure's declared contract, not a document, so it
			// ends the unit cleanly and fails the pass after the guard.
			var arityErr error
			qed := ctx.guard(ev, op.site, tp, []int{ci}, func() error {
				rows, arityErr = rows[:0], nil
				var evalErr error
				cell.Values(func(v text.Span) bool {
					statAdd(&ctx.Stats.ProcCalls, 1)
					outs, err := proc.Fn(v)
					if err != nil {
						evalErr = fmt.Errorf("engine: procedure %s: %w", n.pname, err)
						return false
					}
					for _, row := range outs {
						if len(row) != proc.Outputs {
							arityErr = fmt.Errorf("engine: procedure %s returned %d outputs, want %d", n.pname, len(row), proc.Outputs)
							return false
						}
						cells := make([]compact.Cell, len(tp.Cells), len(tp.Cells)+proc.Outputs)
						copy(cells, tp.Cells)
						cells[ci] = compact.ExactCell(v)
						for _, o := range row {
							cells = append(cells, compact.ExactCell(o))
						}
						rows = append(rows, compact.Tuple{Cells: cells, Maybe: tp.Maybe || multi})
					}
					return true
				})
				return evalErr
			})
			return noOut{}, false, qed, arityErr
		}
	}
	op.emit = func(dst []compact.Tuple, _ compact.Tuple, _ *noOut) []compact.Tuple { return append(dst, rows...) }
	return tupleLoop(ctx, ev, dx, in, n.Columns(), op)
}

// noOut is a procedure's outcome: its rows are the chunk's scratch.
type noOut struct{}

func (noOut) limitFallbacks() int32 { return 0 }
