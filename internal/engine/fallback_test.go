package engine

import (
	"strings"
	"testing"

	"iflex/internal/compact"
	"iflex/internal/markup"
	"iflex/internal/text"
)

// Table-driven coverage of the limit-fallback contract: whenever value
// enumeration exceeds Limits, the tuple is kept conservatively (maybe),
// the outcome is flagged as a fallback, and nothing the conjuncts did
// not certainly rule out is dropped. The engine must degrade to a
// superset, never to a subset.
func TestFilterTupleLimitFallbacks(t *testing.T) {
	d := markup.MustParse("d", strings.Repeat("tok ", 40))
	small := markup.MustParse("s", "10 20 30")
	bigCell := compact.ContainCell(d.WholeSpan()) // ~800 values
	expandCell := func(doc *text.Document) compact.Cell {
		return compact.Cell{Expand: true, Assigns: []text.Assignment{text.ContainOf(doc.WholeSpan())}}
	}
	truePred := func([]text.Span) (bool, error) { return true, nil }
	falsePred := func([]text.Span) (bool, error) { return false, nil }

	cases := []struct {
		name     string
		tp       compact.Tuple
		involved []int
		fp       factoredPred
		lim      Limits
		keep     bool
		sure     bool
		fallback bool
		wantRepl bool // a filtered expansion cell must be reported
	}{
		{
			// One cell over MaxCellValues: no enumeration at all, keep as maybe.
			name:     "cell over MaxCellValues",
			tp:       compact.Tuple{Cells: []compact.Cell{bigCell}},
			involved: []int{0},
			fp:       genericPred(falsePred, 1),
			lim:      Limits{MaxCellValues: 100, MaxValuations: 1 << 20},
			keep:     true, fallback: true,
		},
		{
			// Restricted product over MaxValuations with no conjunct verdicts:
			// fully conservative, even though the predicate rejects everything.
			name: "product over MaxValuations",
			tp: compact.Tuple{Cells: []compact.Cell{
				compact.ContainCell(small.WholeSpan()),
				compact.ContainCell(small.WholeSpan()),
			}},
			involved: []int{0, 1},
			fp:       genericPred(falsePred, 2),
			lim:      Limits{MaxCellValues: 512, MaxValuations: 3},
			keep:     true, fallback: true,
		},
		{
			// MaxValuations hit after a conjunct already failed some values of
			// an expansion column: keep conservatively, but the decided
			// verdicts still filter the cell (dropping a value whose conjunct
			// failed can never drop a satisfying valuation).
			name: "conjunct filtering survives valuation cap",
			tp: compact.Tuple{Cells: []compact.Cell{
				expandCell(small),
				compact.ContainCell(small.WholeSpan()),
			}},
			involved: []int{0, 1},
			fp: factoredPred{
				cols: []colPred{func(v text.Span) (bool, error) {
					n, ok := v.Numeric()
					return ok && n >= 20, nil
				}, nil},
				prepare: func(vals [][]text.Span, batch *statBatch) (idxPred, error) {
					return func([]int) (bool, error) { return false, nil }, nil
				},
			},
			lim:  Limits{MaxCellValues: 512, MaxValuations: 3},
			keep: true, fallback: true, wantRepl: true,
		},
		{
			// Under every limit with an always-true predicate: precise sure
			// keep, no fallback (the guardrails must not fire spuriously).
			name:     "within limits stays precise",
			tp:       compact.Tuple{Cells: []compact.Cell{compact.ContainCell(small.Span(0, 5))}},
			involved: []int{0},
			fp:       genericPred(truePred, 1),
			lim:      DefaultLimits(),
			keep:     true, sure: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var batch statBatch
			res, err := filterTupleF(c.tp, c.involved, c.fp, c.lim, &batch)
			if err != nil {
				t.Fatal(err)
			}
			if res.keep != c.keep || res.sure != c.sure || res.fallback != c.fallback {
				t.Errorf("outcome = {keep:%v sure:%v fallback:%v}, want {keep:%v sure:%v fallback:%v}",
					res.keep, res.sure, res.fallback, c.keep, c.sure, c.fallback)
			}
			if c.wantRepl {
				repl, ok := res.repl[0]
				if !ok {
					t.Fatal("expected a filtered expansion cell in repl")
				}
				if repl.CoversTextValue("10") {
					t.Error("value failing its conjunct must be dropped from the expansion cell")
				}
				if !repl.CoversTextValue("20") || !repl.CoversTextValue("30") {
					t.Error("undecided values must be kept under the fallback")
				}
			} else if res.repl != nil {
				t.Errorf("unexpected repl: %v", res.repl)
			}
		})
	}
}

// A fallback at the operator level must surface in Stats.LimitFallbacks,
// and the conservatively kept tuples must carry the maybe flag.
func TestFallbackCountsAndMaybe(t *testing.T) {
	d := markup.MustParse("d", strings.Repeat("tok ", 40))
	cell := compact.ContainCell(d.WholeSpan())
	tp := compact.Tuple{Cells: []compact.Cell{cell}}
	in := compact.NewTable("x")
	in.Tuples = append(in.Tuples, tp)

	env := NewEnv()
	env.Limits = Limits{MaxCellValues: 100, MaxValuations: 100}
	ctx := NewContext(env)
	fp := genericPred(func([]text.Span) (bool, error) { return false, nil }, 1)
	out, err := applyFilter(ctx, nil, nil, in, []int{0}, factored([]int{0}, fp, ctx.Env.Limits))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tuples) != 1 || !out.Tuples[0].Maybe {
		t.Fatalf("conservative keep missing or not maybe: %+v", out.Tuples)
	}
	if ctx.Stats.LimitFallbacks != 1 {
		t.Errorf("LimitFallbacks = %d, want 1", ctx.Stats.LimitFallbacks)
	}
}
