package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"iflex/internal/compact"
	"iflex/internal/text"
)

// ⋈~ and × stand for many rows per input tuple: the tuple loop decides
// every tuple, then emits each chunk into its range of one row array of
// the exact total (tupleloop.go). These tests hold the real operators to
// that with many matches per left tuple; the protocol itself is pinned
// against a fake operator in tupleloop_test.go.

const emitTuples = 30

// emitEnv binds n tuples to each of L(x) and R(y), single-title pages
// over three titles, so every left page is similar to about a third of the
// right ones, and LK(x, k) and RK(y, k), whose shared k draws from four
// keys; every fifth left key is a contain() over two keys, which makes its
// rows maybe rows.
func emitEnv(n int) *Env {
	env := NewEnv()
	titles := []string{"database systems", "query streams", "text mining"}
	var lt, rt []string
	for i := 0; i < n; i++ {
		lt, rt = append(lt, titles[i%3]), append(rt, titles[(i/2)%3])
	}
	env.AddDocTable("L", "x", titleDocs("l", lt))
	env.AddDocTable("R", "y", titleDocs("r", rt))
	keyed := func(pred, col, prefix string, twoKeys func(i int) bool) {
		t := compact.NewTable(col, "k")
		for i := 0; i < n; i++ {
			page := mustDoc(fmt.Sprintf("%s%03d", prefix, i), "page")
			keyDoc := fmt.Sprintf("%sk%03d", prefix, i)
			var key compact.Cell
			if twoKeys(i) {
				key.Assigns = []text.Assignment{text.ContainOf(mustDoc(keyDoc, "key1 key2").WholeSpan())}
			} else {
				key = compact.ExactCell(mustDoc(keyDoc, fmt.Sprintf("key%d", i%4)).WholeSpan())
			}
			t.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(page.WholeSpan()), key}})
		}
		env.Tables[pred] = t
	}
	keyed("LK", "x", "a", func(i int) bool { return i%5 == 0 })
	keyed("RK", "y", "b", func(int) bool { return false })
	return env
}

// emitNodes are a ⋈~ and a × over emitEnv's tables.
func emitNodes(env *Env) map[string]Node {
	return map[string]Node{
		"simjoin": newSimJoinNode(env, newScanNode(env, "L", []string{"x"}), newScanNode(env, "R", []string{"y"}), "similar", "x", "y"),
		"cross":   newCrossNode(env, newScanNode(env, "LK", []string{"x", "k"}), newScanNode(env, "RK", []string{"y", "k"})),
	}
}

// evalOnce evaluates n alone over its children's tables: the operator's
// own output, before any node above it shares or clips it.
func evalOnce(ctx *Context, n Node) (*compact.Table, error) {
	var ins []*compact.Table
	for _, k := range n.Children() {
		t, err := Eval(ctx, k)
		if err != nil {
			return nil, err
		}
		ins = append(ins, t)
	}
	return n.eval(ctx, nil, nil, ins)
}

// renderIDs renders a table's rows by the documents and bounds of their
// assignments, which tells apart rows over pages of equal text.
func renderIDs(t *compact.Table) string {
	var b strings.Builder
	for _, tp := range t.Tuples {
		for _, c := range tp.Cells {
			for _, a := range c.Assigns {
				fmt.Fprintf(&b, "%s[%d,%d)%v ", a.Span.Doc().ID(), a.Span.Start(), a.Span.End(), a.Mode)
			}
			b.WriteString("| ")
		}
		if tp.Maybe {
			b.WriteString("?")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestCountedEmission: a ⋈~ and a × with many matches per left tuple give
// byte-identical tables at Workers 1, 2 and 8, each in exactly sized
// storage (len == cap).
func TestCountedEmission(t *testing.T) {
	env := emitEnv(emitTuples)
	for name, n := range emitNodes(env) {
		var want string
		for _, workers := range []int{1, 2, 8} {
			ctx := NewContext(env)
			ctx.Workers = workers
			out, err := evalOnce(ctx, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Tuples) < 4*emitTuples || len(out.Tuples) != cap(out.Tuples) {
				t.Errorf("%s workers=%d: %d rows in an array of %d, want many rows, len == cap", name, workers, len(out.Tuples), cap(out.Tuples))
			}
			if workers == 1 {
				want = renderIDs(out)
			} else if renderIDs(out) != want {
				t.Errorf("%s workers=%d: table differs from the serial one", name, workers)
			}
		}
		if !strings.Contains(want, "?") && name == "cross" {
			t.Errorf("cross emitted no maybe row:\n%s", want)
		}
	}
}

// TestCountedEmissionCut: a cancellation in the middle of ⋈~'s loop emits
// the rows of exactly the left tuples reached, reports the documents of
// the others unprocessed, and still leaves len == cap.
func TestCountedEmissionCut(t *testing.T) {
	env := emitEnv(emitTuples)
	n := emitNodes(env)["simjoin"]
	full, err := evalOnce(NewContext(env), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		ctx := NewContext(env)
		ctx.Workers = workers
		c, cancel := context.WithCancel(context.Background())
		ctx.BindCancel(c)
		var mu sync.Mutex
		reached := map[string]bool{}
		// Every pair decision passes the hook with both pages' ids; the left
		// one records its tuple as reached, and l012 cancels the pass.
		env.FaultHook = func(site string, docs []string) error {
			for _, id := range docs {
				if strings.HasPrefix(id, "l") {
					mu.Lock()
					reached[id] = true
					mu.Unlock()
					if id == "l012" {
						cancel()
					}
				}
			}
			return nil
		}
		out, err := evalOnce(ctx, n)
		env.FaultHook = nil
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		want := compact.NewTable(full.Cols...)
		for _, tp := range full.Tuples {
			if reached[tp.Cells[0].Assigns[0].Span.Doc().ID()] {
				want.Append(tp)
			}
		}
		if renderIDs(out) != renderIDs(want) || len(out.Tuples) != cap(out.Tuples) {
			t.Errorf("workers=%d: %d rows (cap %d), want the %d rows of the %d reached tuples", workers, len(out.Tuples), cap(out.Tuples), len(want.Tuples), len(reached))
		}
		var unreached []string
		for i := 0; i < emitTuples; i++ {
			if id := fmt.Sprintf("l%03d", i); !reached[id] {
				unreached = append(unreached, id)
			}
		}
		rep := ctx.DegradedReport()
		if len(unreached) == 0 || rep == nil || !slices.Equal(rep.UnprocessedDocs, unreached) {
			t.Errorf("workers=%d: unprocessed %v, want exactly the unreached %v", workers, rep, unreached)
		}
	}
}

// BenchmarkCrossEmit evaluates a × on a shared column over 200×200 tuples,
// 50 or more matches per left tuple, cold (fresh context, Workers 1).
func BenchmarkCrossEmit(b *testing.B) {
	env := emitEnv(200)
	n := emitNodes(env)["cross"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewContext(env)
		ctx.Workers = 1
		if _, err := evalOnce(ctx, n); err != nil {
			b.Fatal(err)
		}
	}
}
