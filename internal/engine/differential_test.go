package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/markup"
	"iflex/internal/text"
)

// opaqueEnv withdraws every p-function's token similarity: the same Fn,
// now opaque, so no join fuses and a similarity over two sides is the
// naive cross product + p-function filter, σ over ×. It is the reference
// the fused ⋈~ is checked against, and shares none of its blocking or
// token filters.
func opaqueEnv(env *Env) *Env {
	for name, pf := range env.Funcs {
		pf.Token = nil
		env.Funcs[name] = pf
	}
	return env
}

// Differential test: on randomized corpora, the fused token-blocked
// similarity join must produce exactly the same table as the naive cross
// product + p-function filter.
func TestSimJoinDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	words := []string{"query", "join", "index", "stream", "cache", "log"}
	mkDocs := func(prefix string, n int) []*text.Document {
		var out []*text.Document
		for i := 0; i < n; i++ {
			k := 1 + r.Intn(3)
			var toks []string
			for j := 0; j < k; j++ {
				toks = append(toks, words[r.Intn(len(words))])
			}
			src := "<b>" + strings.Join(toks, " ") + "</b> trailer"
			out = append(out, mustDoc(fmt.Sprintf("%s%d", prefix, i), src))
		}
		return out
	}
	pinned := alog.MustParse(`
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>) :- R(y), e2(y, t).
Q(s, t) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
`)
	// The first-step shape: no constraint yet, every join cell a contain()
	// over its page with several values (multiValuedSrc).
	multi := alog.MustParse(multiValuedSrc)
	for trial := 0; trial < 20; trial++ {
		prog := pinned
		if trial%2 == 1 {
			prog = multi
		}
		left := mkDocs("l", 1+r.Intn(6))
		right := mkDocs("r", 1+r.Intn(6))

		envF := NewEnv()
		envF.AddDocTable("L", "x", left)
		envF.AddDocTable("R", "y", right)
		fused, err := Run(prog, envF)
		if err != nil {
			t.Fatal(err)
		}
		envN := NewEnv()
		envN.AddDocTable("L", "x", left)
		envN.AddDocTable("R", "y", right)
		naive, err := Run(prog, opaqueEnv(envN))
		if err != nil {
			t.Fatal(err)
		}
		if fused.Canonical() != naive.Canonical() {
			t.Fatalf("trial %d: fused != naive\nfused:\n%s\nnaive:\n%s",
				trial, fused.Canonical(), naive.Canonical())
		}
	}
}

func mustDoc(id, src string) *text.Document {
	return markup.MustParse(id, src)
}

// Concurrent use: one Env, many goroutines each with their own Context.
// Features, similarity, and the regexp cache must be race-free (run with
// go test -race to enforce).
func TestConcurrentExecution(t *testing.T) {
	env := figure2Env()
	prog := alog.MustParse(figure2Src)
	plan, err := Compile(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := plan.Execute(NewContext(env))
			if err != nil {
				errs <- err
				return
			}
			if len(res.Tuples) != 1 {
				errs <- fmt.Errorf("unexpected result size %d", len(res.Tuples))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
