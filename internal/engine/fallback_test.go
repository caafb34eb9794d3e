package engine

import (
	"strings"
	"testing"

	"iflex/internal/compact"
	"iflex/internal/markup"
	"iflex/internal/text"
)

// Table-driven coverage of the limit-fallback contract: whenever value
// enumeration exceeds the limits, the tuple is kept conservatively (maybe)
// and the outcome is flagged as a fallback. The engine must degrade to a
// superset, never to a subset.
func TestFilterTupleLimitFallbacks(t *testing.T) {
	d := markup.MustParse("d", strings.Repeat("tok ", 40))
	small := markup.MustParse("s", "10 20 30")
	bigCell := compact.ContainCell(d.WholeSpan()) // ~800 values
	truePred := func([]text.Span) (bool, error) { return true, nil }
	falsePred := func([]text.Span) (bool, error) { return false, nil }

	cases := []struct {
		name     string
		tp       compact.Tuple
		involved []int
		fn       Func
		lim      limits
		keep     bool
		sure     bool
		fallback bool
	}{
		{
			// One cell over MaxCellValues: no enumeration at all, keep as maybe.
			name:     "cell over MaxCellValues",
			tp:       compact.Tuple{Cells: []compact.Cell{bigCell}},
			involved: []int{0},
			fn:       falsePred,
			lim:      limits{MaxCellValues: 100, MaxValuations: 1 << 20},
			keep:     true, fallback: true,
		},
		{
			// Product over MaxValuations: fully conservative, even though the
			// predicate rejects everything.
			name: "product over MaxValuations",
			tp: compact.Tuple{Cells: []compact.Cell{
				compact.ContainCell(small.WholeSpan()),
				compact.ContainCell(small.WholeSpan()),
			}},
			involved: []int{0, 1},
			fn:       falsePred,
			lim:      limits{MaxCellValues: 512, MaxValuations: 3},
			keep:     true, fallback: true,
		},
		{
			// Under every limit with an always-true predicate: precise sure
			// keep, no fallback (the guardrails must not fire spuriously).
			name:     "within limits stays precise",
			tp:       compact.Tuple{Cells: []compact.Cell{compact.ContainCell(small.Span(0, 5))}},
			involved: []int{0},
			fn:       truePred,
			lim:      defaultLimits(),
			keep:     true, sure: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var batch statBatch
			res, err := filterTupleF(c.tp, c.involved, c.fn, c.lim, &batch)
			if err != nil {
				t.Fatal(err)
			}
			if res.keep != c.keep || res.sure != c.sure || (res.fallbacks > 0) != c.fallback {
				t.Errorf("outcome = {keep:%v sure:%v fallback:%v}, want {keep:%v sure:%v fallback:%v}",
					res.keep, res.sure, res.fallbacks > 0, c.keep, c.sure, c.fallback)
			}
			if res.repl != nil {
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
	env.limits = limits{MaxCellValues: 100, MaxValuations: 100}
	ctx := NewContext(env)
	out, err := applyFilter(ctx, nil, in, []int{0}, func(tp compact.Tuple, batch *statBatch) (filterOutcome, error) {
		return filterTupleF(tp, []int{0}, func([]text.Span) (bool, error) { return false, nil }, ctx.Env.limits, batch)
	})
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
