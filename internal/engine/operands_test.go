package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/feature"
	"iflex/internal/text"
)

// spanOperand is the per-span parse the records replaced: numeric when the
// text parses, NULL when empty, normalised text otherwise.
func spanOperand(s text.Span) operand {
	if n, ok := s.Numeric(); ok {
		return operand{IsNum: true, Num: n}
	}
	t := s.NormText()
	if t == "" {
		return operand{IsNull: true}
	}
	return operand{Str: t}
}

// refCompareFilter is the comparison selection as it ran before typed value
// records: every value of every involved cell goes through spanOperand for
// every tuple. Between two columns filterTupleF's odometer decides; against
// a constant every value is decided on its own, with no valuation cap and
// no short-circuit. It is the reference the record path must reproduce
// outcome for outcome.
func refCompareFilter(cmp alog.Compare, cols []string, lim Limits) ([]int, tupleFilter) {
	compare := func(l, r operand) (bool, error) {
		if cmp.ROffset != 0 {
			if !r.IsNum {
				return false, nil
			}
			r.Num += cmp.ROffset
		}
		return compareOperands(cmp.Op, l, r)
	}
	var involved []int
	for _, t := range [2]alog.Term{cmp.L, cmp.R} {
		if t.Kind == alog.TermVar {
			involved = append(involved, colIndex(cols, t.Var))
		}
	}
	if len(involved) == 2 {
		return involved, func(tp compact.Tuple, batch *statBatch) (filterOutcome, error) {
			return filterTupleF(tp, involved, func(args []text.Span) (bool, error) {
				return compare(spanOperand(args[0]), spanOperand(args[1]))
			}, lim, batch)
		}
	}
	decide := func(v text.Span) (bool, error) { return compare(spanOperand(v), constTerm(cmp.R)) }
	if cmp.L.Kind != alog.TermVar {
		decide = func(v text.Span) (bool, error) { return compare(constTerm(cmp.L), spanOperand(v)) }
	}
	return involved, func(tp compact.Tuple, batch *statBatch) (filterOutcome, error) {
		cell := tp.Cells[involved[0]]
		if cell.NumValues() > lim.MaxCellValues {
			return filterOutcome{keep: true, fallback: true}, nil
		}
		var pass []bool
		anySat, allSat := false, true
		var err error
		cell.Values(func(v text.Span) bool {
			batch.FuncCalls++
			var ok bool
			ok, err = decide(v)
			pass = append(pass, ok)
			anySat, allSat = anySat || ok, allSat && ok
			return err == nil
		})
		switch {
		case err != nil:
			return filterOutcome{}, err
		case !anySat:
			return filterOutcome{keep: false}, nil
		case allSat:
			return filterOutcome{keep: true, sure: true}, nil
		}
		return finishRepl(filterOutcome{keep: true}, tp, involved, [][]bool{pass})
	}
}

// renderOutcome spells an outcome out, replacement cells in assignment
// order (Cell.String would sort them).
func renderOutcome(o filterOutcome, ncols int) string {
	s := fmt.Sprintf("keep=%v sure=%v fallback=%v", o.keep, o.sure, o.fallback)
	for ci := 0; ci < ncols; ci++ {
		if c, ok := o.repl[ci]; ok {
			s += fmt.Sprintf(" repl[%d]=expand:%v", ci, c.Expand)
			for _, a := range c.Assigns {
				s += " " + a.String()
			}
		}
	}
	return s
}

// operandWords mixes what a comparison can meet: plain and decorated
// numbers, the specials strconv accepts, hex floats, words, and a word
// that only looks like the start of a special.
var operandWords = []string{"10", "20", "20", "30.5", "$1,234.50", "1e3", "-7", "0x1p4", "NaN", "Infinity", "-inf",
	"alpha", "beta", "beta", "nano", "12-14", "Used"}

// randOperandCell builds a cell over fresh little pages: exact and contain
// assignments, single- and multi-token, sometimes an empty span (NULL),
// sometimes text whose whitespace needs collapsing.
func randOperandCell(r *rand.Rand, id string) compact.Cell {
	var c compact.Cell
	for k := 1 + r.Intn(2); k > 0; k-- {
		toks := make([]string, 1+r.Intn(4))
		for i := range toks {
			toks[i] = operandWords[r.Intn(len(operandWords))]
		}
		sep := " "
		if r.Intn(4) == 0 {
			sep = "  \n"
		}
		d := text.NewDocument(fmt.Sprintf("%s-%d", id, k), strings.Join(toks, sep), nil)
		switch r.Intn(5) {
		case 0:
			c.Assigns = append(c.Assigns, text.ExactOf(d.Span(0, 0))) // NULL
		case 1, 2:
			c.Assigns = append(c.Assigns, text.ExactOf(d.Span(0, len(toks[0]))))
		default:
			c.Assigns = append(c.Assigns, text.ContainOf(d.WholeSpan()))
		}
	}
	c.Expand = r.Intn(2) == 0
	return c
}

// TestCompareRecordsEqualSpanPath holds the record path to the span path on
// random cells × the six operators × offsets × constants of every kind ×
// expansion flags × three limit settings: every outcome field, replacement
// cells included, and the FuncCalls charged. Cells recur across tuples and
// filters, as they do in a join's output and across a session's trials, so
// most decisions read a record an earlier tuple or comparison built.
func TestCompareRecordsEqualSpanPath(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	v := func(name string) alog.Term { return alog.Term{Kind: alog.TermVar, Var: name} }
	terms := [][2]alog.Term{
		{v("a"), v("b")}, {v("b"), v("a")}, {v("a"), v("a")},
		{v("a"), {Kind: alog.TermNum, Num: 20}}, {{Kind: alog.TermNum, Num: 20}, v("b")},
		{v("b"), {Kind: alog.TermStr, Str: "beta"}}, {{Kind: alog.TermStr, Str: "alpha beta"}, v("a")},
		{v("a"), {Kind: alog.TermNull}}, {{Kind: alog.TermNull}, v("b")},
	}
	ops := []alog.CompareOp{alog.OpLT, alog.OpLE, alog.OpGT, alog.OpGE, alog.OpEQ, alog.OpNE}
	offsets := []float64{0, 0, 5, -2.5}
	limits := []Limits{DefaultLimits(), {MaxCellValues: 6, MaxValuations: 1024}, {MaxCellValues: 512, MaxValuations: 12}}
	cols := []string{"a", "b"}
	pool := make([]compact.Cell, 60)
	for i := range pool {
		pool[i] = randOperandCell(r, fmt.Sprintf("c%d", i))
	}
	kept, partial, fallbacks, decided := 0, 0, 0, 0
	var parsed int64
	// One memo for most filters, as in a session: a record an earlier
	// comparison published is read by every later one. Every fifth filter
	// has a fresh memo and builds every record it reads.
	shared := feature.NewMemo()
	for trial := 0; trial < 1200; trial++ {
		memo := shared
		if trial%5 == 4 {
			memo = feature.NewMemo()
		}
		lr := terms[trial%len(terms)]
		cmp := alog.Compare{Op: ops[r.Intn(len(ops))], L: lr[0], R: lr[1], ROffset: offsets[r.Intn(len(offsets))]}
		lim := limits[r.Intn(len(limits))]
		involved, ref := refCompareFilter(cmp, cols, lim)
		f := newCompareFilter(cmp, cols, lim, memo)
		if fmt.Sprint(f.involved) != fmt.Sprint(involved) {
			t.Fatalf("%s: involved %v, reference %v", cmp, f.involved, involved)
		}
		for k := 0; k < 12; k++ {
			tp := compact.Tuple{Cells: []compact.Cell{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]}}
			var gb, wb statBatch
			want, err := ref(tp, &wb)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.filter(tp, &gb)
			if err != nil {
				t.Fatal(err)
			}
			parsed += gb.CmpOperandsParsed
			gb.CmpOperandsParsed = 0 // the span path parses nothing
			if g, w := renderOutcome(got, 2), renderOutcome(want, 2); g != w || gb != wb {
				t.Fatalf("trial %d: %s (limits %+v) on %v:\nrecords %s, %d calls\nspans   %s, %d calls",
					trial, cmp, lim, tp, g, gb.FuncCalls, w, wb.FuncCalls)
			}
			decided++
			if got.fallback {
				fallbacks++
			} else if got.keep {
				kept++
				if len(got.repl) > 0 {
					partial++
				}
			}
		}
	}
	if kept == 0 || partial == 0 || fallbacks == 0 || kept == decided || parsed == 0 {
		t.Fatalf("weak corpus: %d decisions, %d kept, %d with filtered expansion cells, %d fallbacks, %d operands parsed",
			decided, kept, partial, fallbacks, parsed)
	}
}

// TestOperandRecordsSharedAcrossChunks has many chunks demand the records
// of the same few cells at once (run under -race): every chunk reads the
// same operands, a record is charged once however many chunks built it,
// and the selection's output and counters equal the serial run's.
func TestOperandRecordsSharedAcrossChunks(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cells := make([]compact.Cell, 4)
	values := 0
	for i := range cells {
		cells[i] = randOperandCell(r, fmt.Sprintf("s%d", i))
		cells[i].Expand = i%2 == 0
		values += cells[i].NumValues()
	}
	recs := &compareFilter{memo: feature.NewMemo()}
	var wg sync.WaitGroup
	type read struct{ cell, first []operand } // a cell's record and its first assignment's
	got := make([][]read, 16)
	batches := make([]statBatch, len(got))
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			docs := docCursor{memo: recs.memo}
			for k := 0; k < 50; k++ {
				for _, c := range cells {
					if c.NumValues() > 0 {
						var buf []operand
						ops := recs.record(c, &docs, &buf, &batches[g])
						first, _ := docs.of(c.Assigns[0].Span.Doc()).Values(c.Assigns[0])
						got[g] = append(got[g], read{ops, first})
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Whoever built it, every caller is handed the one published record of
	// an assignment, and a cell's record is the same operands in order.
	for g := range got {
		for k, rd := range got[g] {
			if len(rd.first) > 0 && &rd.first[0] != &got[0][k].first[0] {
				t.Fatalf("goroutine %d, read %d: got a record of its own, %v", g, k, rd.first)
			}
			if fmt.Sprint(rd.cell) != fmt.Sprint(got[0][k].cell) { // NaN is a value
				t.Fatalf("goroutine %d, read %d: cell record %v, goroutine 0 read %v", g, k, rd.cell, got[0][k].cell)
			}
		}
	}
	var charged int64
	for _, b := range batches {
		charged += b.CmpOperandsParsed
	}
	if charged != int64(values) {
		t.Errorf("charged %d operands for cells holding %d values", charged, values)
	}

	in := compact.NewTable("a", "b")
	for i := 0; i < 512; i++ {
		in.Append(compact.Tuple{Cells: []compact.Cell{cells[i%2], cells[2+i%2]}})
	}
	run := func(workers int) (string, Stats) {
		env := NewEnv()
		env.Tables["T"] = in
		plan, err := Compile(alog.MustParse(`Q(a, b) :- T(a, b), a < b.`), env)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(env)
		ctx.Workers = workers
		res, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res.String(), ctx.Stats
	}
	serial, ss := run(1)
	par, ps := run(8)
	if serial != par || ss.FuncCalls != ps.FuncCalls || ss.CmpOperandsParsed != ps.CmpOperandsParsed {
		t.Errorf("workers 1 and 8 diverge: %d/%d calls, %d/%d operands parsed", ss.FuncCalls, ps.FuncCalls, ss.CmpOperandsParsed, ps.CmpOperandsParsed)
	}
	if ss.CmpOperandsParsed != int64(values) {
		t.Errorf("512 tuples over 4 cells parsed %d operands, the cells hold %d values", ss.CmpOperandsParsed, values)
	}
}

// TestChaosOperandRecordRebuiltAfterFault: a page that fails to load while a
// record is being built (under the quarantine guard) must leave nothing
// behind. Records are published per assignment, by completed builds only:
// the assignments decided before the fault stay published and charged, the
// faulted one publishes and charges nothing, and the next tuple holding the
// cell parses every value of the page again and decides as if the fault had
// never happened.
func TestChaosOperandRecordRebuiltAfterFault(t *testing.T) {
	const body = "10 20 30"
	loads := 0
	flaky := text.NewLazyDocument("flaky", len(body), func() (text.DocContent, error) {
		if loads++; loads == 1 {
			return text.DocContent{}, errors.New("injected shard read error")
		}
		return text.DocContent{Text: body}, nil
	})
	steady := text.NewDocument("steady", "5 25", nil)
	shared := compact.Cell{Expand: true, Assigns: []text.Assignment{
		text.ExactOf(steady.Span(0, 1)), text.ExactOf(steady.Span(2, 4)), text.ExactOf(flaky.Span(0, 2)), text.ExactOf(flaky.Span(6, 8)),
	}}
	other := compact.ExactCell(steady.Span(2, 4))
	cmp := alog.Compare{Op: alog.OpLT, L: alog.Term{Kind: alog.TermVar, Var: "a"}, R: alog.Term{Kind: alog.TermVar, Var: "b"}}
	cols := []string{"a", "b"}
	ctx := NewContext(NewEnv())
	f := newCompareFilter(cmp, cols, ctx.Env.Limits, ctx.Env.FeatureMemo)
	var batch statBatch
	decide := func(tp compact.Tuple) (filterOutcome, bool) {
		var res filterOutcome
		qed := ctx.guard(nil, "pfunc", tp, f.involved, func() error {
			var ferr error
			res, ferr = f.filter(tp, &batch)
			return ferr
		})
		return res, qed
	}
	first := compact.Tuple{Cells: []compact.Cell{shared, other}}
	if _, qed := decide(first); !qed {
		t.Fatal("the failing load did not quarantine the first tuple")
	}
	if got := batch.CmpOperandsParsed; got != 2 || loads != 1 {
		t.Fatalf("the faulted tuple charged %d operands after %d loads, want the 2 of the steady page after 1", got, loads)
	}
	second := compact.Tuple{Cells: []compact.Cell{shared, other}, Maybe: true}
	got, qed := decide(second)
	if qed {
		t.Fatal("the second tuple was quarantined although the page now loads")
	}
	_, ref := refCompareFilter(cmp, cols, ctx.Env.Limits)
	want, err := ref(second, &statBatch{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderOutcome(got, 2), renderOutcome(want, 2); g != w {
		t.Errorf("after the fault the record path decided\n%s\nthe span path\n%s", g, w)
	}
	// Both values of the flaky page were parsed by the retry; the other
	// cell's only assignment is one the shared cell had already published.
	if got := batch.CmpOperandsParsed; got != 4 || loads != 2 {
		t.Errorf("%d operands charged after the retry (want 4: each distinct assignment once), %d loads (want 2)", got, loads)
	}
	if _, qed := decide(first); qed || batch.CmpOperandsParsed != 4 {
		t.Errorf("a third tuple over published records charged again: %d operands", batch.CmpOperandsParsed)
	}
}

// TestAnnotationKeyDoesNotPinPage: an annotation contribution is memoised
// across evaluations, so its key must be a copy even when NormText could
// hand out a slice of the page.
func TestAnnotationKeyDoesNotPinPage(t *testing.T) {
	d := text.NewDocument("d", "Cozy house", nil)
	if unsafe.StringData(d.WholeSpan().NormText()) != unsafe.StringData(d.Text()) {
		t.Skip("NormText copies clean text; nothing can alias")
	}
	tp := compact.Tuple{Cells: []compact.Cell{compact.ExactCell(d.WholeSpan()), compact.ExactCell(d.Span(0, 4))}}
	c := annContribOf(tp, []int{0}, []int{1}, DefaultLimits())
	if len(c.keys) != 1 || c.keys[0] != "Cozy house" {
		t.Fatalf("keys = %q", c.keys)
	}
	if unsafe.StringData(c.keys[0]) == unsafe.StringData(d.Text()) {
		t.Error("the memoised key is a slice of the page text")
	}
}

// compareBench times one evaluation of the plan's topmost comparison
// selection per iteration, its input served from the cache, and reports the
// operands parsed beside ns and allocs per op: warm, over the record tables
// the evaluations before it left in the Env — what every evaluation of a
// session but the first to meet a span sees — and cold, with the tables
// dropped before each evaluation. Pages are seven or eight tokens — a few
// words and a price — so an unconstrained from() cell holds about thirty
// values, as on a first step.
func compareBench(b *testing.B, src string) {
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.3, 4, 499)
	page := func() string {
		toks := make([]string, 7+r.Intn(2))
		for i := range toks {
			toks[i] = fmt.Sprintf("w%d", zipf.Uint64())
		}
		toks[len(toks)-2] = fmt.Sprintf("$%d.%02d", 5+r.Intn(90), r.Intn(100))
		return strings.Join(toks, " ")
	}
	var lt, rtl []string
	for i := 0; i < 400; i++ {
		lt, rtl = append(lt, page()), append(rtl, page())
	}
	env := NewEnv()
	env.AddDocTable("L", "x", titleDocs("l", lt))
	env.AddDocTable("R", "y", titleDocs("r", rtl))
	plan, err := Compile(alog.MustParse(src), env)
	if err != nil {
		b.Fatal(err)
	}
	var cn *compareNode
	var find func(n Node)
	find = func(n Node) {
		if c, ok := n.(*compareNode); ok && cn == nil {
			cn = c
		}
		for _, ch := range n.Children() {
			find(ch)
		}
	}
	find(plan.Root)
	ctx := NewContext(env)
	ctx.Workers = 1
	in, err := Eval(ctx, cn.parent)
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []string{"warm", "cold"} {
		b.Run(leg, func(b *testing.B) {
			if _, err := cn.eval(ctx, nil, nil, []*compact.Table{in}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var parsed int64
			for i := 0; i < b.N; i++ {
				if leg == "cold" {
					env.FeatureMemo.Drop()
				}
				before := ctx.Stats.CmpOperandsParsed
				if _, err := cn.eval(ctx, nil, nil, []*compact.Table{in}); err != nil {
					b.Fatal(err)
				}
				parsed = ctx.Stats.CmpOperandsParsed - before
			}
			b.ReportMetric(float64(len(in.Tuples)), "tuples/op")
			b.ReportMetric(float64(parsed), "cmp_operands_parsed/op")
		})
	}
}

// BenchmarkCompareJoined is the T9 first-step shape: p < q over the output
// of a 400×400 similarity join, where every input cell is shared by all the
// tuples it joined into.
func BenchmarkCompareJoined(b *testing.B) {
	compareBench(b, `
a(x, <t>, <p>) :- L(x), e1(x, t, p).
b(y, <u>, <q>) :- R(y), e2(y, u, q).
Q(t, u) :- a(x, t, p), b(y, u, q), similar(t, u), p < q.
e1(x, t, p) :- from(x, t), from(x, p).
e2(y, u, q) :- from(y, u), from(y, q).
`)
}

// BenchmarkCompareUnshared is the T8 shape: comparisons between columns of
// one extraction, no cell shared between tuples.
func BenchmarkCompareUnshared(b *testing.B) {
	compareBench(b, `
a(x, <lp>, <np>, <up>) :- L(x), e1(x, lp, np, up).
Q(lp) :- a(x, lp, np, up), lp = np, up < np.
e1(x, lp, np, up) :- from(x, lp), from(x, np), from(x, up).
`)
}

// BenchmarkSelectKeep times one comparison selection, p > 5, over 2,000
// rows whose p is an expansion cell, its input served from the cache and
// its records warm: in one leg every value of every row passes, so each
// row is kept as it came; in the other every row loses one of its two
// values and is rebuilt around the narrowed cell.
func BenchmarkSelectKeep(b *testing.B) {
	for _, leg := range []struct {
		name   string
		narrow bool
	}{{"keep", false}, {"narrow", true}} {
		b.Run(leg.name, func(b *testing.B) {
			in := compact.NewTable("x", "p")
			for i := 0; i < 2000; i++ {
				d := mustDoc(fmt.Sprintf("s%04d", i), fmt.Sprintf("price 3 or %d", 10+i%90))
				toks := d.Tokens()
				tok := func(j int) text.Assignment { return text.ExactOf(d.Span(toks[j].Start, toks[j].End)) }
				as := []text.Assignment{tok(3)}
				if leg.narrow {
					as = []text.Assignment{tok(1), tok(3)}
				}
				in.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(d.WholeSpan()), compact.ExpandCell(as...)}})
			}
			env := NewEnv()
			env.Tables["T"] = in
			plan, err := Compile(alog.MustParse(`Q(x, p) :- T(x, p), p > 5.`), env)
			if err != nil {
				b.Fatal(err)
			}
			cn := plan.Root.Children()[0].(*compareNode)
			ctx := NewContext(env)
			ctx.Workers = 1
			scanned, err := Eval(ctx, cn.parent)
			if err != nil {
				b.Fatal(err)
			}
			out, err := cn.eval(ctx, nil, nil, []*compact.Table{scanned})
			if err != nil {
				b.Fatal(err)
			}
			if len(out.Tuples) != 2000 || out.Tuples[0].Cells[1].NumValues() != 1 {
				b.Fatalf("%d rows kept, the first with %v", len(out.Tuples), out.Tuples[0].Cells[1])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cn.eval(ctx, nil, nil, []*compact.Table{scanned}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
