package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/text"
)

// firstMatch is the linear scan the memo's index stands for: the first row
// with fingerprint h structurally identical to tp on the memo's columns.
func firstMatch(a *evalAux, h uint64, tp compact.Tuple) int {
	for i := range a.in {
		if a.fps[i] == h && a.in[i].CellsStructuralEq(tp, a.cols) {
			return i
		}
	}
	return -1
}

// TestMemoIndexFirstMatch holds lookup to firstMatch over fingerprint
// sequences the index finds hard: one fingerprint for every row, distinct
// fingerprints sharing a home slot, homes at the table's end (probes wrap),
// fingerprints chosen per row regardless of content, and keys that are
// absent.
func TestMemoIndexFirstMatch(t *testing.T) {
	pool := loopInput().Tuples[:6]
	absent := loopInput(7).Tuples[7] // a row no memo holds
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 31, 64, 100} {
		// Fingerprints with a given home in a table sized for n rows.
		sized := &evalAux{fps: make([]uint64, n)}
		sized.buildIndex()
		size := len(sized.slots)
		homed := func(slot, k int) []uint64 {
			var fps []uint64
			for len(fps) < k {
				if h := rng.Uint64(); sized.home(h) == slot {
					fps = append(fps, h)
				}
			}
			return fps
		}
		randoms := func(k int) []uint64 {
			fps := make([]uint64, k)
			for i := range fps {
				fps[i] = rng.Uint64()
			}
			return fps
		}
		for _, c := range []struct {
			name string
			keys []uint64
		}{
			{"all equal", randoms(1)},
			{"same home", homed(rng.Intn(size), 4)},
			{"wrapping", append(homed(size-1, 3), homed(size-2, 2)...)},
			{"random", randoms(5)},
		} {
			for _, byRow := range []bool{false, true} {
				// byRow draws each row's fingerprint from keys regardless of
				// its content; otherwise a row's fingerprint follows its tuple,
				// as real fingerprints do.
				a := &evalAux{cols: []int{0}, in: make([]compact.Tuple, n), fps: make([]uint64, n)}
				for i := range a.in {
					p := rng.Intn(len(pool))
					a.in[i], a.fps[i] = pool[p], c.keys[p%len(c.keys)]
					if byRow {
						a.fps[i] = c.keys[rng.Intn(len(c.keys))]
					}
				}
				a.buildIndex()
				if len(a.slots) < 2*n {
					t.Fatalf("n=%d: %d slots, want at least twice the rows", n, len(a.slots))
				}
				queries := append(append([]uint64{}, c.keys...), randoms(2)...)
				queries = append(queries, homed(sized.home(c.keys[0]), 1)...)
				for _, h := range queries {
					for _, tp := range append(pool[:len(pool):len(pool)], absent) {
						if got, want := a.lookup(h, tp), firstMatch(a, h, tp); got != want {
							t.Errorf("n=%d %s byRow=%v: lookup(%x, %s) = %d, the first match is %d",
								n, c.name, byRow, h, docOf(tp), got, want)
						}
					}
				}
			}
		}
	}
	if (*evalAux)(nil).lookup(1, pool[0]) != -1 {
		t.Error("no memo found a row")
	}
}

// TestMemoOfAnotherTypeIsNoPrior: a prior whose outcome array holds
// another operator family's type is ignored; the loop recomputes every row.
func TestMemoOfAnotherTypeIsNoPrior(t *testing.T) {
	base := newFake(2, false)
	first := &deltaState{}
	in := loopInput()
	if _, err := tupleLoop(base.ctx, nil, first, in, []string{"x"}, base.op()); err != nil || first.aux == nil {
		t.Fatalf("clean pass: err=%v memo=%v", err, first.aux)
	}
	ctx := NewContext(NewEnv())
	op := tupleOp[noOut]{cols: []int{0}}
	op.open = func(*statBatch) decideFn[noOut] {
		return func(_ compact.Tuple, old *noOut) (noOut, bool, bool, error) {
			if old != nil {
				t.Error("decide got an outcome of another type")
			}
			return noOut{}, false, false, nil
		}
	}
	op.emit = func(dst []compact.Tuple, tp compact.Tuple, _ *noOut) []compact.Tuple { return append(dst, tp) }
	dx := &deltaState{prior: first.aux}
	out, err := tupleLoop(ctx, nil, dx, in, []string{"x"}, op)
	if err != nil || len(out.Tuples) != loopTuples {
		t.Fatalf("err=%v, %d rows", err, len(out.Tuples))
	}
	if st := &ctx.Stats; st.TuplesReused != 0 || st.TuplesRecomputed != loopTuples || dx.aux == nil {
		t.Errorf("reused=%d recomputed=%d memo=%v, want 0/%d/kept", st.TuplesReused, st.TuplesRecomputed, dx.aux, loopTuples)
	}
}

// memoRun is a two-stage constraint run on lp over T8-shaped rows (page,
// title, list-price candidate), with its scanned input.
func memoRun(tb testing.TB, rows int) (*Context, *constraintNode, []*compact.Table) {
	in := compact.NewTable("x", "t", "lp")
	for i := 0; i < rows; i++ {
		d := text.NewDocument(fmt.Sprintf("m%04d", i), fmt.Sprintf(
			"Title %d of the book List: $%d.99 New: $%d.50 Used: $%d.00 Ships soon", i, 20+i%50, 15+i%40, 5+i%30), nil)
		toks := d.Tokens()
		in.Append(compact.Tuple{Cells: []compact.Cell{
			compact.ExactCell(d.WholeSpan()),
			{Assigns: []text.Assignment{text.ContainOf(d.Span(toks[0].Start, toks[4].End))}},
			{Assigns: []text.Assignment{text.ContainOf(d.Span(toks[5].Start, toks[len(toks)-1].End))}},
		}})
	}
	env := NewEnv()
	env.Tables["Books"] = in
	scan := newScanNode(env, "Books", in.Cols)
	numeric := alog.Constraint{Feature: "numeric", Attr: "lp", Value: "yes"}
	run := constrain(tb, env, constrain(tb, env, scan, numeric), alog.Constraint{Feature: "min-value", Attr: "lp", Value: "30"}, numeric)
	ctx := NewContext(env)
	ctx.Workers = 1
	scanned, err := Eval(ctx, scan)
	if err != nil {
		tb.Fatal(err)
	}
	return ctx, run, []*compact.Table{scanned}
}

// TestMemoChargeMatchesAllocation: the cache charge of a constraint memo
// over 2,000 rows is within 15 % of what keeping it allocates — the
// difference between the same pass with delta evaluation on and off.
func TestMemoChargeMatchesAllocation(t *testing.T) {
	ctx, run, in := memoRun(t, 2000)
	if len(run.cons) != 2 {
		t.Fatalf("a run of %d stages", len(run.cons))
	}
	// pass returns the bytes one evaluation allocates, the least of three
	// (anything else the process allocates meanwhile only adds).
	var kept *evalAux
	pass := func(delta bool) int64 {
		least := int64(-1)
		for range 3 {
			var dx *deltaState
			if delta {
				dx = &deltaState{}
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			out, err := run.eval(ctx, nil, dx, in)
			runtime.ReadMemStats(&ms)
			if err != nil || len(out.Tuples) == 0 || len(out.Tuples) == len(in[0].Tuples) {
				t.Fatalf("err=%v, %d of %d rows kept", err, len(out.Tuples), len(in[0].Tuples))
			}
			if b := int64(ms.TotalAlloc - before); least < 0 || b < least {
				least = b
			}
			if delta {
				kept = dx.aux
			}
		}
		return least
	}
	pass(false) // the document records
	off, on := pass(false), pass(true)
	charge, keeping := kept.bytes, on-off
	t.Logf("memo charged %d bytes, keeping it allocated %d", charge, keeping)
	if kept == nil || float64(charge) < 0.85*float64(keeping) || float64(charge) > 1.15*float64(keeping) {
		t.Errorf("memo charged %d bytes, keeping it allocated %d (%d with delta on, %d off)", charge, keeping, on, off)
	}
}

// TestJoinMemoChargeMatchesHeap: the cache charge of a ⋈~ memo (memoBytes,
// which charges each outcome's matches by their capacity) is within 15 %
// of the live heap the kept memo holds, on the first-step shape (contain
// cells over 300×300 titles, many matches per left tuple) and on pinned
// cells.
func TestJoinMemoChargeMatchesHeap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var lt, rtl []string
	for i := 0; i < 300; i++ {
		lt, rtl = append(lt, randTitle(r)), append(rtl, randTitle(r))
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for name, src := range map[string]string{"first step": multiValuedSrc, "pinned": docJoinSrc} {
		env := NewEnv()
		env.AddDocTable("L", "x", titleDocs("l", lt))
		env.AddDocTable("R", "y", titleDocs("r", rtl))
		plan, err := Compile(alog.MustParse(src), env)
		if err != nil {
			t.Fatal(err)
		}
		var join *simJoinNode
		for n := plan.Root; join == nil; n = n.Children()[0] {
			join, _ = n.(*simJoinNode)
		}
		ctx := NewContext(env)
		ins := []*compact.Table{}
		for _, k := range join.Children() {
			in, err := Eval(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, in)
		}
		// A pass without a memo builds the records and the right index.
		if _, err := join.eval(ctx, nil, nil, ins); err != nil {
			t.Fatal(err)
		}
		dx := &deltaState{}
		out, err := join.eval(ctx, nil, dx, ins)
		if err != nil || len(out.Tuples) < 2*len(ins[0].Tuples) {
			t.Fatalf("%s: err=%v, %d rows", name, err, len(out.Tuples))
		}
		out = nil
		// What the memo holds is what dropping it frees.
		kept, charged := live(), dx.aux.bytes
		dx.aux = nil
		held := kept - live()
		t.Logf("%s: memo charges %d bytes and holds %d", name, charged, held)
		if c := float64(charged); c < 0.85*float64(held) || c > 1.15*float64(held) {
			t.Errorf("%s: memo charges %d bytes and holds %d", name, charged, held)
		}
		runtime.KeepAlive(ins)
	}
}

// BenchmarkTupleLoopMemo is the constraint run of memoRun over 2,000 rows
// with delta evaluation on: cold builds the memo with no prior, replay
// replays the previous pass's memo for every row.
func BenchmarkTupleLoopMemo(b *testing.B) {
	ctx, run, in := memoRun(b, 2000)
	first := &deltaState{}
	if _, err := run.eval(ctx, nil, first, in); err != nil || first.aux == nil {
		b.Fatalf("err=%v memo=%v", err, first.aux)
	}
	for _, leg := range []struct {
		name  string
		prior *evalAux
	}{{"cold", nil}, {"replay", first.aux}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run.eval(ctx, nil, &deltaState{prior: leg.prior}, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
