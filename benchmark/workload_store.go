package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/markup"
	"iflex/internal/store"
	"iflex/internal/text"
)

// probeSrc finds the stored pages similar to each probe page; with the
// store bound as index, the join's blocking is served by postings. It is
// the probe program of internal/experiments/scale.go.
const probeSrc = `S(y, x) :- probe(y), docs(x), similar(y, x).`

// storeWorkload is one store's day, durable throughout. A round bulk
// ingests a DBLife crawl, opens it under a resident budget a quarter of
// what holding every page would need, sweeps every page's text, runs
// whole-page similarity probes through the postings, then ingests a
// small Books store, converges a T9 session over it and takes it through
// commit→reeval cycles that each rewrite a few pages.
type storeWorkload struct {
	opt  options
	task *corpus.Task
	dir  string

	crawl   []page
	probes  []*text.Document
	prog    *alog.Program
	pool    []*corpus.Corpus
	batches [][][]page // per corpus, per commit
	truth   []map[string]bool

	fs        *countingFS
	probeWant string // the first round's probe result; every later one must equal it

	lastK    int
	lastProg *alog.Program
	lastRes  *assistant.Result
}

func newStore(opt options) (*storeWorkload, error) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(opt.outDir, "work", fmt.Sprintf("store-%d", os.Getpid()))
	return &storeWorkload{opt: opt, task: task, dir: dir, fs: &countingFS{FS: store.RealFS(true)}}, nil
}

// setUp streams the crawl into memory, parses the probe pages, and
// generates the Books corpora with the pages their commits will rewrite.
func (w *storeWorkload) setUp() error {
	sz := w.opt.sz
	w.crawl = dblifePages(sz.dblifePages, w.opt.seed)
	w.probes = make([]*text.Document, sz.probePages)
	for i, p := range probePages(w.crawl, sz.probePages) {
		w.probes[i] = markup.MustParse(fmt.Sprintf("probe-%d", i), p.src)
	}
	w.pool = booksPool(w.task, sz.booksRecords, sz.pool, w.opt.seed)
	w.batches = make([][][]page, len(w.pool))
	for i, c := range w.pool {
		w.batches[i] = mutationBatches(w.task, c, sz.booksRecords, sz.commits, sz.putPages, corpusSeed(w.opt.seed, i))
	}
	var err error
	w.prog, err = alog.Parse(w.task.Program)
	return err
}

// prepare computes ground truth and checks, once per run and on a prefix
// of the crawl, that probing through the store's postings equals eager
// in-memory evaluation.
func (w *storeWorkload) prepare() error {
	w.truth = make([]map[string]bool, len(w.pool))
	for i, c := range w.pool {
		w.truth[i] = w.task.Truth(c)
	}
	prefix := w.crawl[:w.opt.sz.prefixPages]
	dir := filepath.Join(w.dir, "prefix")
	if err := w.ingest(newRec(&tally{}), "", dir, prefix); err != nil {
		return err
	}
	st, err := store.Open(dir, store.OpenOptions{FS: w.fs})
	if err != nil {
		return err
	}
	defer st.Close()
	stored, _, err := w.probe(st.Docs(), st)
	if err != nil {
		return err
	}
	eagerDocs := make([]*text.Document, len(prefix))
	for i, p := range prefix {
		eagerDocs[i] = markup.MustParse(p.id, p.src)
	}
	eager, _, err := w.probe(eagerDocs, nil)
	if err != nil {
		return err
	}
	if stored != eager {
		return fmt.Errorf("probe through postings differs from eager in-memory evaluation on a %d-page prefix", len(prefix))
	}
	return os.RemoveAll(dir)
}

// ingest bulk-writes pages into a fresh store at dir. kind tells the
// crawl's spans ("") from the Books store's ("books_").
func (w *storeWorkload) ingest(r *rec, kind, dir string, pages []page) error {
	var wr *store.Writer
	if _, err := r.do("store."+kind+"create", 1, func() (err error) {
		wr, err = store.Create(dir, store.Options{FS: w.fs})
		return err
	}); err != nil {
		return err
	}
	if _, err := r.do("store."+kind+"add", len(pages), func() error {
		for _, p := range pages {
			if err := wr.Add(p.id, p.src); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	_, err := r.do("store."+kind+"close", 1, wr.Close)
	return err
}

// probe runs the probe program over docs; with a store, blocking and
// whole-page tokens come from its persistent index.
func (w *storeWorkload) probe(docs []*text.Document, st *store.DiskStore) (string, engine.StatsSnapshot, error) {
	env := engine.NewEnv()
	env.AddDocTable("probe", "y", w.probes)
	env.AddDocTable("docs", "x", docs)
	if st != nil {
		env.DocIndex, env.Postings = st, st
	}
	plan, err := engine.Compile(alog.MustParse(probeSrc), env)
	if err != nil {
		return "", engine.StatsSnapshot{}, err
	}
	plan = engine.OptimizePlan(plan, env, engine.OptOptions{})
	ctx := engine.NewContext(env)
	ctx.Workers = w.opt.procs
	t, err := plan.Execute(ctx)
	if err != nil {
		return "", engine.StatsSnapshot{}, err
	}
	return t.Canonical(), ctx.Stats.Snapshot(), nil
}

func (w *storeWorkload) measure(d *runData) error {
	return runSequential(d, w.opt.rounds(w.opt.sz.storeRounds), len(w.pool), func(k int, r *rec) error {
		probe, err := w.crawlDay(r)
		if err != nil {
			return err
		}
		return w.booksDay(r, k, probe)
	})
}

// crawlDay is the read-mostly half of a round: bulk ingest, open, sweep
// and probe, each a batch over every page of the crawl. It returns the
// probe's engine counters.
func (w *storeWorkload) crawlDay(r *rec) (engine.StatsSnapshot, error) {
	dir := filepath.Join(w.dir, "crawl")
	defer os.RemoveAll(dir)
	n := len(w.crawl)

	syncs0, bytes0 := w.fs.syncs.Load(), w.fs.bytes.Load()
	if _, err := r.do("store.ingest", n, func() error { return w.ingest(r, "", dir, w.crawl) }); err != nil {
		return engine.StatsSnapshot{}, err
	}
	r.add("store.fsyncs_per_ingest", float64(w.fs.syncs.Load()-syncs0))
	r.add("store.bytes_written_per_page", float64(w.fs.bytes.Load()-bytes0)/float64(n))
	size, err := dirSize(dir)
	if err != nil {
		return engine.StatsSnapshot{}, err
	}
	r.add("store.bytes_per_page", float64(size)/float64(n))

	var st *store.DiskStore
	if _, err := r.do("store.open", 1, func() (err error) {
		// About a quarter of the store's own estimate for holding every page
		// materialized, so the sweep has to page.
		st, err = store.Open(dir, store.OpenOptions{ResidentBudget: int64(n) * 820, FS: w.fs})
		return err
	}); err != nil {
		return engine.StatsSnapshot{}, err
	}
	defer st.Close()
	r.do("store.text_load", n, func() error {
		for _, doc := range st.Docs() {
			_ = doc.Text()
		}
		st.TrimWait()
		return nil
	})
	r.add("store.loads", float64(st.Loads()))
	r.add("store.releases", float64(st.Releases()))
	r.add("store.resident_mb", float64(st.ResidentEstimate())/(1<<20))
	r.ops.check(st.Releases() > 0, "sweep released no page under the resident budget")

	var got string
	var stats engine.StatsSnapshot
	if _, err := r.do("engine.probe", n, func() (err error) { got, stats, err = w.probe(st.Docs(), st); return err }); err != nil {
		return engine.StatsSnapshot{}, err
	}
	if w.probeWant == "" {
		w.probeWant = got
	}
	r.ops.check(got == w.probeWant && stats.BlockIdxPostings > 0 && strings.Count(got, "\n") >= len(w.probes),
		"probe result changed between rounds, bypassed the postings, or missed a probe page")
	if r.tr != nil {
		replayIndex(r, st)
	}
	return stats, nil
}

// replayIndex (traced rounds only) decodes every token's posting run
// cold, reads them all again from the cache, and reads every page's
// blocking tokens.
func replayIndex(r *rec, st *store.DiskStore) {
	tokens := st.SortedTokens()
	for _, name := range []string{"store.postings_decode", "store.postings_hit"} {
		r.do(name, len(tokens), func() error {
			for _, tok := range tokens {
				st.TokenPostings(tok)
			}
			return nil
		})
	}
	r.do("store.block_tokens", st.Len(), func() error {
		for _, d := range st.Docs() {
			st.BlockTokens(d)
		}
		return nil
	})
}

// bindBooks binds a Books store's live pages to the task's tables.
func bindBooks(env *engine.Env, st *store.DiskStore) {
	var amazon, barnes []*text.Document
	for _, d := range st.Docs() {
		if strings.HasPrefix(d.ID(), "amazon") {
			amazon = append(amazon, d)
		} else {
			barnes = append(barnes, d)
		}
	}
	env.AddDocTable("Amazon", "x", amazon)
	env.AddDocTable("Barnes", "x", barnes)
}

// booksDay is the read-beside-write half of a round: a small Books store
// is ingested, a T9 session converges over it, and each commit rewrites
// a few pages and is followed by an incremental re-evaluation. At the end
// the store is reopened: it must be at the generation of the last
// acknowledged commit with every rewritten page readable.
func (w *storeWorkload) booksDay(r *rec, k int, probe engine.StatsSnapshot) error {
	dir := filepath.Join(w.dir, "books")
	defer os.RemoveAll(dir)
	if err := w.ingest(r, "books_", dir, pagesOf(w.pool[k])); err != nil {
		return err
	}
	st, err := store.Open(dir, store.OpenOptions{FS: w.fs})
	if err != nil {
		return err
	}
	defer st.Close()

	oracle := w.task.Oracle()
	s, res, _, err := converge(r, func() *assistant.Session {
		env := engine.NewEnv()
		bindBooks(env, st)
		env.DocIndex, env.Postings = st, st
		return assistant.NewSession(env, w.prog, oracle, w.opt.sessionConfig(assistant.Simulation{}, w.opt.procs))
	}, oracle)
	if err != nil {
		return err
	}
	checkSuperset(r.ops, "store-backed T9", res, w.truth[k])
	w.lastK, w.lastProg, w.lastRes = k, s.Program(), res

	for _, batch := range w.batches[k] {
		var delta *store.Delta
		syncs0 := w.fs.syncs.Load()
		if _, err := r.do("store.mutation", len(batch), func() error {
			m, err := st.BeginMutation()
			if err != nil {
				return err
			}
			if _, err := r.do("store.put", len(batch), func() error {
				for _, p := range batch {
					if err := m.Put(p.id, p.src); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			_, err = r.do("store.commit", 1, func() (err error) { delta, err = m.Commit(); return err })
			return err
		}); err != nil {
			return err
		}
		r.add("store.fsyncs_per_commit", float64(w.fs.syncs.Load()-syncs0))
		if _, err := r.do("assistant.reeval", 1, func() error {
			s.ApplyCorpusDelta(&engine.CorpusDelta{Added: delta.Added, Updated: delta.Updated, Removed: delta.Removed},
				func(env *engine.Env) { bindBooks(env, st) })
			_, err := s.Reevaluate(0)
			return err
		}); err != nil {
			return err
		}
	}
	// The round's engine counters: the session's plus the probe's, since
	// both ran through the engine this round.
	snap := s.StatsSnapshot()
	snap.FuncCalls += probe.FuncCalls
	snap.TuplesBuilt += probe.TuplesBuilt
	snap.BlockIdxPostings += probe.BlockIdxPostings
	snap.IndexTokenHits += probe.IndexTokenHits
	addEngineStats(r, k, snap)
	if err := st.Close(); err != nil {
		return err
	}
	return w.checkDurable(r.ops, dir, w.batches[k])
}

// checkDurable reopens a mutated store and checks it kept every
// acknowledged commit.
func (w *storeWorkload) checkDurable(ops *tally, dir string, batches [][]page) error {
	st, err := store.Open(dir, store.OpenOptions{FS: w.fs})
	if err != nil {
		return err
	}
	defer st.Close()
	readable := true
	for _, batch := range batches {
		for _, p := range batch {
			d, ok := st.DocByID(p.id)
			readable = readable && ok && d.Text() != ""
		}
	}
	ops.check(st.Generation() == len(batches) && readable,
		"reopened store at generation %d after %d commits (every rewritten page readable: %t)", st.Generation(), len(batches), readable)
	return nil
}

// replay runs the default-window sessions over the Books corpora in
// memory (the stop rule does not depend on where the pages are kept),
// then the layer replays.
func (w *storeWorkload) replay(r *rec) error {
	if err := replayDefaultWindow(r, w.opt, w.task, w.pool, assistant.Simulation{}, w.opt.procs); err != nil {
		return err
	}
	c := w.pool[w.lastK]
	return replayLayers(r, replayInput{
		pages: w.crawl, programSrc: w.task.Program, env: w.task.Env(c),
		converged: w.lastProg, final: w.lastRes.Final, oracle: w.task.Oracle(), workers: w.opt.procs,
	}, w.opt.sz.replayPages)
}

func (w *storeWorkload) close() { os.RemoveAll(w.dir) }

// countingFS counts what the store asks of the filesystem: bytes written
// and fsyncs of files and directories. The counts are exact.
type countingFS struct {
	store.FS
	syncs, bytes atomic.Int64
}

type countingFile struct {
	store.File
	fs *countingFS
}

func (c *countingFS) Create(path string) (store.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// dirSize totals the regular files directly under dir.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
