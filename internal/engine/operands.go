package engine

import (
	"sync"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/text"
)

// cellKey identifies a cell by its assignment slice: address of the first
// element and length. The engine never edits an assignment slice in place
// (cells are replaced wholesale — the invariant compact.Tuple.Copy
// documents), so two cells with the same key encode the same values, and
// the tuples a join or a selection copies a cell into all carry one key.
type cellKey struct {
	first *text.Assignment
	n     int
}

// operandRecords holds the typed value records of one evaluation of a
// comparison selection: per distinct cell, its values in Cell.Values order,
// each parsed once into an operand. The output of a similarity join shares
// every input cell among all the tuples it joined into, so a record is read
// many times for one parse; the records die with the evaluation, which
// lets an operand's string alias the page text.
//
// Safe for concurrent use. Chunks that miss on the same cell at once each
// build the record, and the first to finish publishes it; a build that
// panics (a page failing to load under the quarantine guard) publishes
// nothing, so the next tuple holding the cell builds it afresh. parsed
// counts the operands of published records only and so does not depend on
// who won.
type operandRecords struct {
	mu     sync.Mutex
	recs   map[cellKey][]operand
	parsed int64
}

// of returns the record of a cell that holds at least one value.
func (r *operandRecords) of(c compact.Cell) []operand {
	key := cellKey{first: &c.Assigns[0], n: len(c.Assigns)}
	r.mu.Lock()
	ops, ok := r.recs[key]
	r.mu.Unlock()
	if ok {
		return ops
	}
	ops = make([]operand, 0, c.NumValues())
	c.Values(func(s text.Span) bool {
		ops = append(ops, spanOperand(s))
		return true
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.recs[key]; ok {
		return prev
	}
	if r.recs == nil {
		r.recs = map[cellKey][]operand{}
	}
	r.recs[key] = ops
	r.parsed += int64(len(ops))
	return ops
}

// compareFilter decides one evaluation of a comparison selection with at
// least one variable side, on typed value records. It keeps filterTupleF's
// contract and outcomes — limit checks in the same order, on NumValues
// before any record is built; against a constant one evaluation per value
// and no valuation cap; between two columns the valuation odometer, right
// side fastest, with its short-circuit — so keep/sure verdicts,
// expansion-cell replacements, fallbacks and FuncCalls are those of the
// span-based predicates it replaced (kept as the test reference).
type compareFilter struct {
	op     alog.CompareOp
	offset float64
	lim    Limits
	// The left (0) and right (1) term: col is the input column of a variable
	// and -1 for a constant, whose one-operand record is konst.
	col   [2]int
	konst [2][]operand
	// involved lists the columns of the variable terms, left first; first is
	// the side of its first entry.
	involved []int
	first    int
	recs     operandRecords
}

func newCompareFilter(cmp alog.Compare, cols []string, lim Limits) *compareFilter {
	f := &compareFilter{op: cmp.Op, offset: cmp.ROffset, lim: lim}
	for s, t := range [2]alog.Term{cmp.L, cmp.R} {
		if t.Kind != alog.TermVar {
			f.col[s] = -1
			f.konst[s] = []operand{constTerm(t)}
			continue
		}
		if len(f.involved) == 0 {
			f.first = s
		}
		f.col[s] = colIndex(cols, t.Var)
		f.involved = append(f.involved, f.col[s])
	}
	return f
}

// compare applies the rule's numeric offset to the right operand (offsets
// only apply to numeric right sides) and compares.
func (f *compareFilter) compare(l, r operand) (bool, error) {
	if f.offset != 0 {
		if !r.isNum {
			return false, nil
		}
		r.num += f.offset
	}
	return compareOperands(f.op, l, r)
}

func (f *compareFilter) filter(tp compact.Tuple, batch *statBatch) (filterOutcome, error) {
	conservative := filterOutcome{keep: true, fallback: true}
	combos := 1
	for _, ci := range f.col {
		if ci < 0 {
			continue
		}
		n := tp.Cells[ci].NumValues()
		if n > f.lim.MaxCellValues {
			return conservative, nil
		}
		if n == 0 {
			return filterOutcome{keep: false}, nil
		}
		combos *= n
	}
	// Only a comparison between two columns enumerates valuations; against
	// a constant every value is decided on its own.
	twoCols := len(f.involved) == 2
	if twoCols && combos > f.lim.MaxValuations {
		return conservative, nil
	}

	sc := scratchPool.Get().(*filterScratch)
	defer scratchPool.Put(sc)
	sc.grow(2)
	// sat[s][j] marks value j of side s as part of a satisfying valuation;
	// only expansion cells need it, and the odometer may stop once theirs
	// are saturated.
	ops, sat := f.konst, sc.sat[:2]
	var expand [2]bool
	satRemaining := 0
	for s, ci := range f.col {
		if ci < 0 {
			continue
		}
		ops[s] = f.recs.of(tp.Cells[ci])
		sat[s] = resized(sat[s], len(ops[s]))
		if expand[s] = tp.Cells[ci].Expand; expand[s] {
			satRemaining += len(ops[s])
		}
	}
	anySat, allSat := false, true
decide:
	for a, l := range ops[0] {
		for b, r := range ops[1] {
			batch.funcCalls++
			ok, err := f.compare(l, r)
			if err != nil {
				return filterOutcome{}, err
			}
			if !ok {
				allSat = false
			} else {
				anySat = true
				if expand[0] && !sat[0][a] {
					sat[0][a] = true
					satRemaining--
				}
				if expand[1] && !sat[1][b] {
					sat[1][b] = true
					satRemaining--
				}
			}
			if twoCols && anySat && !allSat && satRemaining == 0 {
				break decide
			}
		}
	}
	switch {
	case !anySat:
		return filterOutcome{keep: false}, nil
	case allSat:
		return filterOutcome{keep: true, sure: true}, nil
	}
	return finishRepl(filterOutcome{keep: true}, tp, f.involved, sat[f.first:f.first+len(f.involved)])
}
