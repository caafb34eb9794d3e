package engine

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/markup"
	"iflex/internal/store"
	"iflex/internal/text"
)

// docJoinSrc joins two document tables on whole-page similarity: scans
// emit exact(whole-document) cells, so the fused similarity join can be
// served entirely from a persistent token index (postings-backed blocking
// on the right, stored token sequences for the pinned fast path).
const docJoinSrc = `Q(x, y) :- L(x), R(y), similar(x, y).`

// TestStoreIndexByteIdentity: attaching a document index and postings to
// the environment changes how tokens are obtained, never what they are —
// results stay byte-identical to the index-free run across worker counts,
// and delta evaluation, whether the index is a MemStore
// over the same documents or a DiskStore whose pages are loaded lazily
// and released again under a small resident budget.
func TestStoreIndexByteIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	l, rt := optDocs("l", 12, r), optDocs("r", 12, r)
	for _, src := range []string{
		docJoinSrc,
		// Multi-valued left cells against the postings-backed right side:
		// the value-level probe meets the stored whole-page records.
		`Q(s, y) :- L(x), from(x, s), R(y), similar(s, y).`,
	} {
		storeIndexByteIdentity(t, alog.MustParse(src), l, rt)
	}
}

func storeIndexByteIdentity(t *testing.T, prog *alog.Program, l, r []docPair) {
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{ShardDocs: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(append([]docPair{}, l...), r...) {
		if err := w.Add(p.id, p.src); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// budget has room for two or three of these pages: every run over the
	// disk leg must release. bind wires one leg's documents and, for the
	// indexed legs, its index.
	const budget = 2 << 10
	type leg struct {
		name string
		bind func(env *Env) *store.DiskStore
	}
	plain := func(env *Env) []*text.Document {
		ldocs, rdocs := docsOf(l), docsOf(r)
		env.AddDocTable("L", "x", ldocs)
		env.AddDocTable("R", "y", rdocs)
		return append(ldocs, rdocs...)
	}
	mem := leg{"mem", func(env *Env) *store.DiskStore {
		ms := store.NewMemStore(plain(env))
		env.DocIndex, env.Postings = ms, ms
		return nil
	}}
	disk := leg{"disk", func(env *Env) *store.DiskStore {
		ds, err := store.Open(dir, store.OpenOptions{ResidentBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		env.AddDocTable("L", "x", ds.Docs()[:len(l)])
		env.AddDocTable("R", "y", ds.Docs()[len(l):])
		env.DocIndex, env.Postings = ds, ds
		return ds
	}}
	run := func(bind func(*Env) *store.DiskStore, workers int, delta bool) (string, StatsSnapshot, *store.DiskStore) {
		env := NewEnv()
		ds := bind(env)
		plan, err := Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(env)
		ctx.Workers = workers
		if delta {
			ctx.EnableDelta()
		}
		res, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Canonical compares value bytes, not document handles: the disk
		// leg joins the same pages through the store's own handles.
		return res.Canonical(), ctx.Stats.Snapshot(), ds
	}

	want, base, _ := run(func(env *Env) *store.DiskStore { plain(env); return nil }, 1, false)
	if base.IndexTokenHits != 0 || base.BlockIdxPostings != 0 {
		t.Fatalf("index counters moved without an index: %+v", base)
	}
	if !strings.Contains(want, "(") {
		t.Fatalf("join produced no tuples; test corpus too sparse:\n%s", want)
	}
	for _, lg := range []leg{mem, disk} {
		for _, workers := range []int{1, 8} {
			for _, delta := range []bool{false, true} {
				where := fmt.Sprintf("%s workers=%d delta=%t", lg.name, workers, delta)
				got, st, ds := run(lg.bind, workers, delta)
				if got != want {
					t.Fatalf("%s: indexed result differs:\n%s\nwant:\n%s", where, got, want)
				}
				if st.IndexTokenHits == 0 {
					t.Errorf("%s: index never consulted", where)
				}
				if st.BlockIdxPostings == 0 {
					t.Errorf("%s: blocking did not use postings", where)
				}
				if ds != nil && ds.Releases() == 0 {
					t.Errorf("%s: %d loads under a %d-byte budget released no page", where, ds.Loads(), budget)
				}
			}
		}
	}
}

// TestStoreIndexPostingsFallback: a right side that is not pure
// whole-document scans (extracted sub-spans) cannot be postings-backed;
// the join must fall back to the per-tuple map and still match the
// index-free result.
func TestStoreIndexPostingsFallback(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ldocs := docsOf(optDocs("l", 8, r))
	rdocs := docsOf(optDocs("r", 8, r))
	all := append(append([]*text.Document{}, ldocs...), rdocs...)
	prog := alog.MustParse(`
a(x, <s>) :- L(x), e1(x, s).
b(y, <t>) :- R(y), e2(y, t).
Q(s, t) :- a(x, s), b(y, t), similar(s, t).
e1(x, s) :- from(x, s), bold-font(s) = distinct-yes.
e2(y, t) :- from(y, t), bold-font(t) = distinct-yes.
`)
	run := func(indexed bool) (string, StatsSnapshot) {
		env := NewEnv()
		env.AddDocTable("L", "x", ldocs)
		env.AddDocTable("R", "y", rdocs)
		if indexed {
			ms := store.NewMemStore(all)
			env.DocIndex = ms
			env.Postings = ms
		}
		plan, err := Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(env)
		res, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res.Canonical(), ctx.Stats.Snapshot()
	}
	want, _ := run(false)
	got, st := run(true)
	if got != want {
		t.Fatalf("indexed result differs:\n%s\nwant:\n%s", got, want)
	}
	if st.BlockIdxPostings != 0 {
		t.Fatal("postings-backed blocking used for sub-span cells")
	}
}

// repeatedPageSrc joins the stored pages with a right side that lists
// every page twice (a union of two identical rules): the posting runs
// cannot tell a page's two tuples apart, so postingsBlockIndex declines and
// the join builds its own lists from the whole-page cells' tokens.
const repeatedPageSrc = `
R(y) :- D(y).
R(y) :- D(y).
Q(x, y) :- D(x), R(y), similar(x, y).
`

// TestStoreRepeatedRightPage: over a right side that repeats a stored page,
// a store bound with BindStore gives the same table and the same
// deterministic counters as the plain document table, at Workers 1 and 8.
// The store still answers the pinned cells' token sequences; blocking
// tokenizes the pages it loads.
func TestStoreRepeatedRightPage(t *testing.T) {
	pages := optDocs("p", 10, rand.New(rand.NewSource(11)))
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{ShardDocs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if err := w.Add(p.id, p.src); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	prog := alog.MustParse(repeatedPageSrc)
	run := func(bound bool, workers int) (string, StatsSnapshot) {
		env := NewEnv()
		if bound {
			ds, err := store.Open(dir, store.OpenOptions{ResidentBudget: 2 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			env.BindStore("D", "x", ds)
		} else {
			env.AddDocTable("D", "x", docsOf(pages))
		}
		plan, err := Compile(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(env)
		ctx.Workers = workers
		res, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res.Canonical(), ctx.Stats.Snapshot()
	}
	want, base := run(false, 1)
	if base.SimTuplePairs == 0 {
		t.Fatalf("the join probed no pair; test corpus too sparse:\n%s", want)
	}
	for _, workers := range []int{1, 8} {
		got, st := run(true, workers)
		if got != want {
			t.Fatalf("workers=%d: bound store's table differs:\n%s\nwant:\n%s", workers, got, want)
		}
		if bound, plain := statCounts(st.Stats, isDet), statCounts(base.Stats, isDet); !maps.Equal(bound, plain) {
			t.Errorf("workers=%d: deterministic counters differ:\nbound %v\nplain %v", workers, bound, plain)
		}
		if st.BlockIdxPostings != 0 {
			t.Errorf("workers=%d: postings backed a right side that repeats pages", workers)
		}
		if st.IndexTokenHits == 0 {
			t.Errorf("workers=%d: the store answered no token sequence", workers)
		}
	}
}

// TestDiskStoreCorruptShardQuarantines: a document whose shard record was
// corrupted on disk faults at first content access inside a guarded
// operator; the engine isolates that document and completes over the
// survivors, as it does for a fault in extraction code.
func TestDiskStoreCorruptShardQuarantines(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"p0", "p1", "p2", "p3"}
	raws := []string{
		"<b>alpha price</b> body text one",
		"<b>beta price</b> body text two",
		"<b>gamma price</b> body text three",
		"<b>delta price</b> body text four",
	}
	for i := range ids {
		if err := w.Add(ids[i], raws[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt p2's stored text inside the shard file.
	shard := filepath.Join(dir, "shard-0000.ifs")
	b, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(b, []byte(markup.MustParse(ids[2], raws[2]).Text()))
	if off < 0 {
		t.Fatal("text of p2 not found in shard")
	}
	for i := 0; i < 6; i++ {
		b[off+i] ^= 0xFF
	}
	if err := os.WriteFile(shard, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	env := NewEnv()
	env.AddDocTable("P", "x", s.Docs())
	env.DocIndex = s
	env.Postings = s
	plan, err := Compile(alog.MustParse(`
Q(x, <v>) :- P(x), e(x, v).
e(x, v) :- from(x, v), bold-font(v) = distinct-yes.
`), env)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(env)
	res, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Canonical()
	for _, want := range []string{"alpha price", "beta price", "delta price"} {
		if !strings.Contains(got, want) {
			t.Fatalf("survivor value %q missing from result:\n%s", want, got)
		}
	}
	if strings.Contains(got, "gamma") {
		t.Fatalf("corrupt document's tuples survived:\n%s", got)
	}
	q := ctx.QuarantinedDocs()
	if len(q) == 0 {
		t.Fatal("nothing quarantined")
	}
	if !slices.Contains(q, "p2") {
		t.Fatalf("quarantine does not name p2: %v", q)
	}
}

// TestDiskStoreCorruptTokenListQuarantines: a left page whose stored
// token list was corrupted on disk (one flipped bit turns delta
// into gamma) used to be blocked on the wrong tokens without a trace. The
// record's checksum covers its token list, so the index refuses it,
// the join tokenizes the page live, the load faults, and the result is
// degraded, naming the page.
func TestDiskStoreCorruptTokenListQuarantines(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"l0", "l1", "r0", "r1"}
	raws := []string{"alpha beta gamma", "delta epsilon zeta", "alpha beta gamma", "delta epsilon zeta"}
	for i := range ids {
		if err := w.Add(ids[i], raws[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// l1's record: u32(idLen) "l1", textLen, page length, checksum and
	// nTokens, then its token ids in text order, delta's first.
	shard := filepath.Join(dir, "shard-0000.ifs")
	b, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(b, []byte("\x02\x00\x00\x00l1"))
	if off < 0 {
		t.Fatal("record of l1 not found in shard")
	}
	b[off+6+16] ^= 1
	if err := os.WriteFile(shard, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	env := NewEnv()
	env.AddDocTable("L", "x", s.Docs()[:2])
	env.AddDocTable("R", "y", s.Docs()[2:])
	env.DocIndex, env.Postings = s, s
	plan, err := Compile(alog.MustParse(docJoinSrc), env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.ExecuteContext(context.Background(), NewContext(env))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == nil || !slices.Equal(res.Degraded.QuarantinedDocs(), []string{"l1"}) {
		t.Fatalf("degraded report %+v, want l1 quarantined; result:\n%s", res.Degraded, res.Canonical())
	}
	if got := res.Canonical(); !strings.Contains(got, "alpha beta gamma") || strings.Contains(got, "delta") {
		t.Fatalf("want only the l0-r0 match:\n%s", got)
	}
}
