package engine

import (
	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/feature"
	"iflex/internal/text"
)

// operand is one side of a comparison at valuation time: the typed value of
// a span, as the document's record table keeps it.
type operand = feature.Value

// docCursor finds the record tables of the documents a worker meets,
// remembering the last: the cells of a tuple — and the assignments of a
// cell — nearly always come from one page, whose table is then looked up
// once.
type docCursor struct {
	memo *feature.Memo
	doc  *text.Document
	tab  *feature.DocRecords
}

func (c *docCursor) of(d *text.Document) *feature.DocRecords {
	if d != c.doc {
		c.doc, c.tab = d, c.memo.Doc(d)
	}
	return c.tab
}

// compareFilter decides one evaluation of a comparison selection with at
// least one variable side, on typed value records. It keeps filterTupleF's
// contract and outcomes — limit checks in the same order, on NumValues
// before any record is built; against a constant one evaluation per value
// and no valuation cap; between two columns the valuation odometer, right
// side fastest, with its short-circuit — so keep/sure verdicts,
// expansion-cell replacements, fallbacks and FuncCalls are those of the
// span-based predicates it replaced (kept as the test reference).
//
// The records are the documents' own (feature.DocRecords.Values): one per
// assignment, keyed by its content, parsed once for the life of the document
// handle and shared by every comparison node, evaluation and trial that
// meets the span again. Safe for concurrent use.
type compareFilter struct {
	op     alog.CompareOp
	offset float64
	lim    limits
	// The left (0) and right (1) term: col is the input column of a variable
	// and -1 for a constant, whose one-operand record is konst.
	col   [2]int
	konst [2][]operand
	// involved lists the columns of the variable terms, left first; first is
	// the side of its first entry.
	involved []int
	first    int
	memo     *feature.Memo
}

// newCompareFilter builds the filter over the record tables of memo.
func newCompareFilter(cmp alog.Compare, cols []string, lim limits, memo *feature.Memo) *compareFilter {
	f := &compareFilter{op: cmp.Op, offset: cmp.ROffset, lim: lim, memo: memo}
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

// record returns the record of a cell that holds at least one value — its
// assignments' records in order, which is Cell.Values order: the stored
// slice itself for a cell of one assignment, otherwise the records stitched
// together in *buf. The operands this call published are charged to
// batch: a build that panics (a page failing to load under the quarantine
// guard) publishes nothing, so the next tuple holding the assignment builds
// it afresh, and of two chunks that build one record at once only the first
// to finish is charged.
func (f *compareFilter) record(c compact.Cell, docs *docCursor, buf *[]operand, batch *statBatch) []operand {
	*buf = (*buf)[:0]
	for _, a := range c.Assigns {
		rec, parsed := docs.of(a.Span.Doc()).Values(a)
		batch.CmpOperandsParsed += int64(parsed)
		if len(c.Assigns) == 1 {
			return rec
		}
		*buf = append(*buf, rec...)
	}
	return *buf
}

// compare applies the rule's numeric offset to the right operand (offsets
// only apply to numeric right sides) and compares.
func (f *compareFilter) compare(l, r operand) (bool, error) {
	if f.offset != 0 {
		if !r.IsNum {
			return false, nil
		}
		r.Num += f.offset
	}
	return compareOperands(f.op, l, r)
}

func (f *compareFilter) filter(tp compact.Tuple, batch *statBatch) (filterOutcome, error) {
	conservative := filterOutcome{keep: true, fallbacks: 1}
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
	docs := docCursor{memo: f.memo}
	var expand [2]bool
	satRemaining := 0
	for s, ci := range f.col {
		if ci < 0 {
			continue
		}
		ops[s] = f.record(tp.Cells[ci], &docs, &sc.ops[s], batch)
		sat[s] = resized(sat[s], len(ops[s]))
		if expand[s] = tp.Cells[ci].Expand; expand[s] {
			satRemaining += len(ops[s])
		}
	}
	anySat, allSat := false, true
decide:
	for a, l := range ops[0] {
		for b, r := range ops[1] {
			batch.FuncCalls++
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
