package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"iflex/internal/compact"
	"iflex/internal/markup"
)

// The protocol around an operator's per-tuple decision — fan-out, cuts,
// delta priors, quarantine, counters, output order, the memo — is tested
// here once, against a fake operator; the operators' own tests cover what
// they decide.

const loopTuples = 40

// loopInput is one single-column table over loopTuples documents d00…;
// the documents named in changed are replaced by fresh ones (new handles,
// so no memo entry matches them).
func loopInput(changed ...int) *compact.Table {
	in := compact.NewTable("x")
	for i := 0; i < loopTuples; i++ {
		id := fmt.Sprintf("d%02d", i)
		if slices.Contains(changed, i) {
			id += "'"
		}
		in.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(markup.MustParse(id, fmt.Sprintf("page %d", i)).WholeSpan())}})
	}
	return in
}

func docOf(tp compact.Tuple) string { return tp.Cells[0].Assigns[0].Span.Doc().ID() }

// ordinal recovers i from d<i> or d<i>'.
func ordinal(tp compact.Tuple) int {
	var i int
	fmt.Sscanf(docOf(tp), "d%d", &i)
	return i
}

// fakeOp stands for tuple i with i%3 rows, charges a valuation-limit
// fallback on every fifth tuple, and runs before (when set) inside its
// guarded unit, which is where the cases inject cancellations and faults,
// and unguarded (when set) outside it, where a panic is not a document's.
// decided records the tuples decide computed, reached the ones it saw.
type fakeOp struct {
	ctx       *Context
	before    func(i int)
	unguarded func(i int)
	mu        sync.Mutex
	decided   []int
	reached   map[int]bool
}

func (f *fakeOp) op() tupleOp {
	op := tupleOp{site: "fake", cols: []int{0}, minChunk: 4}
	op.open = func(*statBatch) decideFn {
		return func(tp compact.Tuple, old *deltaOut) (deltaOut, bool, bool, error) {
			i := ordinal(tp)
			f.mu.Lock()
			f.reached[i] = true
			f.mu.Unlock()
			if old != nil {
				return *old, true, false, nil
			}
			o := deltaOut{stageSum: int32(i % 3)}
			if i%5 == 0 {
				o.fallbacks = 1
			}
			if f.unguarded != nil {
				f.unguarded(i)
			}
			if f.ctx.guard(nil, op.site, tp, op.cols, func() error {
				if f.before != nil {
					f.before(i)
				}
				return nil
			}) {
				return deltaOut{}, false, true, nil
			}
			f.mu.Lock()
			f.decided = append(f.decided, i)
			f.mu.Unlock()
			return o, false, false, nil
		}
	}
	op.emit = func(dst []compact.Tuple, tp compact.Tuple, o *deltaOut) []compact.Tuple {
		for k := int32(0); k < o.stageSum; k++ {
			dst = append(dst, tp)
		}
		return dst
	}
	return op
}

// serialRows is what a plain loop over the reached tuples of in emits.
func serialRows(in *compact.Table, reached map[int]bool) string {
	out := compact.NewTable("x")
	for _, tp := range in.Tuples {
		if i := ordinal(tp); reached == nil || reached[i] {
			for k := 0; k < i%3; k++ {
				out.Append(tp)
			}
		}
	}
	return out.String()
}

func newFake(workers int) *fakeOp {
	ctx := NewContext(NewEnv())
	ctx.Workers = workers
	return &fakeOp{ctx: ctx, reached: map[int]bool{}}
}

func TestTupleLoopProtocol(t *testing.T) {
	const fallbacks = loopTuples / 5
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// The memo every prior case replays: one clean pass.
			base := newFake(workers)
			first := &deltaState{}
			if _, err := base.ctx.tupleLoop(nil, first, loopInput(), []string{"x"}, base.op()); err != nil || first.aux == nil {
				t.Fatalf("clean pass: err=%v memo=%v", err, first.aux)
			}

			t.Run("no prior", func(t *testing.T) {
				for _, dx := range []*deltaState{nil, {}} {
					f := newFake(workers)
					in := loopInput()
					out, err := f.ctx.tupleLoop(nil, dx, in, []string{"x"}, f.op())
					if err != nil {
						t.Fatal(err)
					}
					if out.String() != serialRows(in, nil) {
						t.Errorf("delta=%v: rows differ from the serial run", dx != nil)
					}
					st := &f.ctx.Stats
					if st.TuplesReused != 0 || st.TuplesRecomputed != loopTuples || st.LimitFallbacks != fallbacks {
						t.Errorf("delta=%v: reused=%d recomputed=%d fallbacks=%d, want 0/%d/%d",
							dx != nil, st.TuplesReused, st.TuplesRecomputed, st.LimitFallbacks, loopTuples, fallbacks)
					}
					if dx != nil && (dx.aux == nil || len(dx.aux.outs) != loopTuples || &dx.aux.in[0] != &in.Tuples[0]) {
						t.Errorf("memo is not the loop's outcome array over the input rows: %+v", dx.aux)
					}
				}
			})

			t.Run("full prior", func(t *testing.T) {
				f := newFake(workers)
				dx := &deltaState{prior: first.aux}
				in := loopInput()
				out, err := f.ctx.tupleLoop(nil, dx, in, []string{"x"}, f.op())
				if err != nil {
					t.Fatal(err)
				}
				// Same ids, fresh handles: nothing matches structurally.
				if st := &f.ctx.Stats; st.TuplesReused != 0 || st.TuplesRecomputed != loopTuples {
					t.Fatalf("fresh handles replayed: reused=%d", st.TuplesReused)
				}
				// The rows the memo was built over do.
				f = newFake(workers)
				dx = &deltaState{prior: first.aux}
				in = &compact.Table{Cols: []string{"x"}, Tuples: first.aux.in}
				ev := &EvalTrace{}
				if out, err = f.ctx.tupleLoop(ev, dx, in, []string{"x"}, f.op()); err != nil {
					t.Fatal(err)
				}
				if out.String() != serialRows(in, nil) {
					t.Error("replayed rows differ from the serial run")
				}
				st := &f.ctx.Stats
				if st.TuplesReused != loopTuples || st.TuplesRecomputed != 0 || st.LimitFallbacks != fallbacks || len(f.decided) != 0 {
					t.Errorf("reused=%d recomputed=%d fallbacks=%d computed=%v, want %d/0/%d/none",
						st.TuplesReused, st.TuplesRecomputed, st.LimitFallbacks, f.decided, loopTuples, fallbacks)
				}
				if ev.work != st.Work || dx.aux == nil {
					t.Errorf("trace attribution %+v, context %+v, memo %v", ev.work, st.Work, dx.aux)
				}
			})

			t.Run("prior with changed tuples", func(t *testing.T) {
				changed := []int{3, 17, 18, 39}
				f := newFake(workers)
				dx := &deltaState{prior: first.aux}
				in := &compact.Table{Cols: []string{"x"}, Tuples: slices.Clone(first.aux.in)}
				fresh := loopInput(changed...)
				for _, i := range changed {
					in.Tuples[i] = fresh.Tuples[i]
				}
				out, err := f.ctx.tupleLoop(nil, dx, in, []string{"x"}, f.op())
				if err != nil {
					t.Fatal(err)
				}
				if out.String() != serialRows(in, nil) {
					t.Error("rows differ from the serial run")
				}
				sort.Ints(f.decided)
				st := &f.ctx.Stats
				if !slices.Equal(f.decided, changed) || st.TuplesReused != loopTuples-4 || st.TuplesRecomputed != 4 || st.LimitFallbacks != fallbacks {
					t.Errorf("computed %v (want %v), reused=%d recomputed=%d fallbacks=%d", f.decided, changed, st.TuplesReused, st.TuplesRecomputed, st.LimitFallbacks)
				}
				// The memo left behind chains every row, replayed ones included.
				next := newFake(workers)
				dx2 := &deltaState{prior: dx.aux}
				if _, err := next.ctx.tupleLoop(nil, dx2, in, []string{"x"}, next.op()); err != nil || next.ctx.Stats.TuplesReused != loopTuples {
					t.Errorf("second successor: err=%v reused=%d", err, next.ctx.Stats.TuplesReused)
				}
			})

			t.Run("best-effort cut", func(t *testing.T) {
				f := newFake(workers)
				c, cancel := context.WithCancel(context.Background())
				defer cancel()
				f.ctx.BindCancel(c)
				f.before = func(i int) {
					if i == 13 {
						cancel()
					}
				}
				dx := &deltaState{}
				in := loopInput()
				out, err := f.ctx.tupleLoop(nil, dx, in, []string{"x"}, f.op())
				if err != nil {
					t.Fatal(err)
				}
				if out.String() != serialRows(in, f.reached) {
					t.Error("partial rows differ from the serial run over the reached tuples")
				}
				var want []string
				for i := 0; i < loopTuples; i++ {
					if !f.reached[i] {
						want = append(want, fmt.Sprintf("d%02d", i))
					}
				}
				rep := f.ctx.DegradedReport()
				if len(want) == 0 || rep == nil || !rep.DeadlineExpired || !slices.Equal(rep.UnprocessedDocs, want) {
					t.Errorf("unprocessed %v, want exactly the unreached %v", rep, want)
				}
				if dx.aux != nil {
					t.Error("a cut pass published its memo")
				}
			})

			t.Run("transient error", func(t *testing.T) {
				f := newFake(workers)
				var mu sync.Mutex
				failed := map[string]bool{}
				f.ctx.Env.FaultHook = func(site string, docs []string) error {
					mu.Lock()
					defer mu.Unlock()
					if site == "fake" && strings.HasSuffix(docs[0], "7") && !failed[docs[0]] {
						failed[docs[0]] = true
						return errors.New("transient")
					}
					return nil
				}
				dx := &deltaState{}
				in := loopInput()
				out, err := f.ctx.tupleLoop(nil, dx, in, []string{"x"}, f.op())
				if err != nil {
					t.Fatal(err)
				}
				st := &f.ctx.Stats
				if out.String() != serialRows(in, nil) || st.QuarantineRetries != 4 || st.QuarantinedDocs != 0 || st.TuplesRecomputed != loopTuples || dx.aux == nil {
					t.Errorf("retries=%d quarantined=%d recomputed=%d memo=%v", st.QuarantineRetries, st.QuarantinedDocs, st.TuplesRecomputed, dx.aux)
				}
			})

			t.Run("panic quarantined", func(t *testing.T) {
				f := newFake(workers)
				f.before = func(i int) {
					if i == 29 {
						panic("bad page")
					}
				}
				dx := &deltaState{}
				_, err := f.ctx.tupleLoop(nil, dx, loopInput(), []string{"x"}, f.op())
				if !errors.Is(err, ErrQuarantined) || !strings.Contains(err.Error(), "fake") {
					t.Fatalf("err=%v, want ErrQuarantined at site fake", err)
				}
				// A faulting pass still decides every other tuple, so the
				// quarantine set does not depend on the schedule.
				if got := f.ctx.QuarantinedDocs(); !slices.Equal(got, []string{"d29"}) || len(f.decided) != loopTuples-1 {
					t.Errorf("quarantined %v, %d tuples computed", got, len(f.decided))
				}
				if dx.aux != nil {
					t.Error("a quarantining pass published its memo")
				}
			})
		})
	}
}

// loopNode evaluates its fake operator over a fixed table.
type loopNode struct {
	ident
	f *fakeOp
}

func (n *loopNode) Columns() []string { return []string{"x"} }
func (n *loopNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState, _ []*compact.Table) (*compact.Table, error) {
	return ctx.tupleLoop(ev, dx, loopInput(), []string{"x"}, n.f.op())
}

// TestTupleLoopPanicReachesCaller: a panic inside decide but outside its
// guarded unit — in the last chunk, which a pool worker runs whenever a
// slot is free — reaches the Eval caller with no in-flight entry or pool slot left
// behind, and the key evaluates cleanly afterwards.
func TestTupleLoopPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		f := newFake(workers)
		f.ctx.EnableDelta()
		f.unguarded = func(i int) {
			if i == loopTuples-1 {
				panic("boom in decide")
			}
		}
		n := &loopNode{ident: ident{id: newNodeID(), head: "loopNode"}, f: f}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "boom in decide") {
					t.Fatalf("workers=%d: recovered %v, want decide's panic", workers, r)
				}
			}()
			Eval(f.ctx, n)
		}()
		f.ctx.mu.Lock()
		inflight, cached := len(f.ctx.inflight), len(f.ctx.cache)
		f.ctx.mu.Unlock()
		if inflight != 0 || cached != 0 || f.ctx.extraWorkers.Load() != 0 {
			t.Errorf("workers=%d: %d in-flight entries, %d cached, %d pool slots held after the panic", workers, inflight, cached, f.ctx.extraWorkers.Load())
		}
		f.unguarded = nil
		if out, err := Eval(f.ctx, n); err != nil || len(out.Tuples) == 0 {
			t.Errorf("workers=%d: re-evaluation after the panic: %v", workers, err)
		}
	}
}
