package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"iflex/internal/alog"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/markup"
	"iflex/internal/store"
	"iflex/internal/text"
)

// ScaleOptions configures the corpus-scale storage harness.
type ScaleOptions struct {
	// Pages is the DBLife corpus size (default 100000).
	Pages int
	// Dir is where the store is built (default: a temp dir, removed on
	// return). An existing store at Dir is reused, skipping ingest.
	Dir string
	// ResidentBudget bounds materialized page content in estimated bytes
	// (default 64 MiB) — the knob that keeps resident memory flat while
	// the sweep touches every page.
	ResidentBudget int64
	// Probes is how many corpus pages are replayed as whole-page
	// similarity queries (default 8).
	Probes int
	// IdentityPages caps the byte-identity sweep: when Pages is at or
	// under it, the harness re-runs the probe against an eager in-memory
	// corpus across Workers 1/8 × delta on/off × index on/off and fails
	// on any drift (default 5000; the sweep needs the eager corpus
	// resident, so it is skipped at larger scales).
	IdentityPages int
}

// ScaleResult is the benchmark record for iflex-bench -table scale,
// written to BENCH_SCALE.json. Keys ending in _s are wall times (lower
// is better); keys ending in _per_s are throughputs (higher is better —
// iflex-bench -compare fails on a >10% drop, never on a rise).
type ScaleResult struct {
	Pages  int `json:"pages"`
	Shards int `json:"shards"`
	Vocab  int `json:"vocab"`
	// StoreMB is the on-disk store size (shards + token index).
	StoreMB float64 `json:"store_mb"`
	// EagerEstimateMB estimates what holding every page materialized
	// (text + token/line indexes) would cost resident — the baseline the
	// budget bounds against.
	EagerEstimateMB float64 `json:"eager_estimate_mb"`
	BudgetMB        float64 `json:"budget_mb"`

	IngestS         float64 `json:"ingest_s"`
	IngestPagesPerS float64 `json:"ingest_pages_per_s"`
	// IndexLoadS is store open time: manifest, shard TOCs, vocabulary,
	// posting offsets — everything resident before the first query.
	IndexLoadS float64 `json:"index_load_s"`

	// Sweep: every page's text materialized once, in order, under the
	// resident budget.
	SweepS         float64 `json:"sweep_s"`
	SweepPagesPerS float64 `json:"sweep_pages_per_s"`
	// ResidentMB is the store's materialized-content estimate after the
	// sweep (must stay at or under the budget); Releases counts pages
	// demoted by the budget along the way.
	ResidentMB float64 `json:"resident_mb"`
	Releases   int64   `json:"releases"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`

	// Probe: whole-page similarity queries served by the persistent
	// inverted index (postings-backed join blocking, stored token
	// sequences for the pinned comparisons).
	ProbeS         float64 `json:"probe_s"`
	ProbePagesPerS float64 `json:"probe_pages_per_s"`
	ProbeMatches   int     `json:"probe_matches"`

	IdentityChecked bool                 `json:"identity_checked"`
	Stats           engine.StatsSnapshot `json:"stats"`
}

// scaleProbeSrc finds the stored pages similar to each probe page. The
// docs side is the stored corpus scan, so the fused similarity join's
// blocking runs straight off the persistent inverted index.
const scaleProbeSrc = `S(y, x) :- probe(y), docs(x), similar(y, x).`

// Scale builds (or reuses) a sharded DBLife document store, then
// measures ingest throughput, index load time, a full content sweep
// under the resident budget, and index-served whole-page similarity
// probes. At small Pages it also proves the persistent-index path
// byte-identical to in-memory evaluation.
func Scale(o Options, so ScaleOptions) (*ScaleResult, error) {
	o = o.withDefaults()
	if so.Pages <= 0 {
		so.Pages = 100000
	}
	if so.ResidentBudget <= 0 {
		so.ResidentBudget = 64 << 20
	}
	if so.Probes <= 0 {
		so.Probes = 8
	}
	if so.IdentityPages <= 0 {
		so.IdentityPages = 5000
	}
	dir := so.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "iflex-scale-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = filepath.Join(tmp, "store")
	}
	res := &ScaleResult{Pages: so.Pages, BudgetMB: mb(so.ResidentBudget)}
	cfg := corpus.DBLifeConfig{Pages: so.Pages, Seed: o.Seed}

	// Ingest: stream pages into the store writer; nothing is retained
	// outside the writer's bounded shard/index state.
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		fmt.Fprintf(o.Out, "scale: reusing store at %s\n", dir)
	} else {
		w, err := store.Create(dir, store.Options{})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		err = corpus.StreamDBLife(cfg, nil, func(id, src string) error { return w.Add(id, src) })
		if err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		res.IngestS = time.Since(start).Seconds()
		res.IngestPagesPerS = float64(so.Pages) / res.IngestS
	}

	// Open: everything the index needs resident to answer queries.
	start := time.Now()
	s, err := store.Open(dir, store.OpenOptions{ResidentBudget: so.ResidentBudget})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res.IndexLoadS = time.Since(start).Seconds()
	man := s.Manifest()
	res.Shards = man.Shards
	res.Vocab = man.Vocab
	res.StoreMB = mb(man.RawBytes + man.TextBytes) // shard payloads; TOC/index are small
	if sz, err := dirSize(dir); err == nil {
		res.StoreMB = mb(sz)
	}
	// Same per-page estimate the store's resident budget uses
	// (text + token/line indexes ≈ 14 bytes per text byte + overhead).
	var eagerBytes int64
	for _, d := range s.Docs() {
		eagerBytes += int64(d.Len())*14 + 512
	}
	res.EagerEstimateMB = mb(eagerBytes)

	// Sweep: materialize every page once under the budget.
	start = time.Now()
	for _, d := range s.Docs() {
		_ = d.Text()
	}
	res.SweepS = time.Since(start).Seconds()
	res.SweepPagesPerS = float64(so.Pages) / res.SweepS
	res.ResidentMB = mb(s.ResidentEstimate())
	res.Releases = s.Releases()

	// Probe pages: replay the first Probes pages of the same generator
	// stream as independent query documents.
	probes, err := samplePages(cfg, so.Probes)
	if err != nil {
		return nil, err
	}
	run := func(docs []*text.Document, indexed bool, workers int, delta, optimize bool) (*engine.Context, string, error) {
		env := engine.NewEnv()
		env.AddDocTable("probe", "y", probes)
		env.AddDocTable("docs", "x", docs)
		if indexed {
			env.DocIndex = s
			env.Postings = s
		}
		plan, err := engine.Compile(alog.MustParse(scaleProbeSrc), env)
		if err != nil {
			return nil, "", err
		}
		if optimize {
			plan = engine.OptimizePlan(plan, env, engine.OptOptions{})
		}
		ctx := engine.NewContext(env)
		ctx.Workers = workers
		if delta {
			ctx.EnableDelta()
		}
		t, err := plan.Execute(ctx)
		if err != nil {
			return nil, "", err
		}
		return ctx, t.Canonical(), nil
	}

	start = time.Now()
	ctx, canon, err := run(s.Docs(), true, o.Workers, false, !o.DisableOptimizer)
	if err != nil {
		return nil, err
	}
	res.ProbeS = time.Since(start).Seconds()
	res.ProbePagesPerS = float64(so.Pages) / res.ProbeS
	res.ProbeMatches = strings.Count(canon, "\n")
	res.Stats = ctx.Stats.Snapshot()
	if res.Stats.BlockIdxPostings == 0 {
		return nil, errors.New("scale: probe did not use the persistent postings index")
	}
	if res.ProbeMatches < so.Probes {
		return nil, fmt.Errorf("scale: %d probe matches for %d probes (each probe page is a corpus page)", res.ProbeMatches, so.Probes)
	}

	// Byte-identity: the persistent-index path against eager in-memory
	// evaluation, across workers × delta × index.
	if so.Pages <= so.IdentityPages {
		eager := eagerDocs(cfg)
		_, want, err := run(eager, false, 1, false, false)
		if err != nil {
			return nil, err
		}
		// The stored scan joins the same pages via different document
		// handles, so compare canonical forms (value bytes), not handles.
		if canon != want {
			return nil, errors.New("scale: persistent-index result differs from in-memory evaluation")
		}
		for _, workers := range []int{1, 8} {
			for _, delta := range []bool{false, true} {
				for _, optimize := range []bool{false, true} {
					_, got, err := run(s.Docs(), true, workers, delta, optimize)
					if err != nil {
						return nil, err
					}
					if got != want {
						return nil, fmt.Errorf("scale: drift at workers=%d delta=%t opt=%t", workers, delta, optimize)
					}
				}
			}
		}
		res.IdentityChecked = true
	}

	res.PeakRSSMB = peakRSSMB()
	fmt.Fprintf(o.Out, "Corpus-scale storage (DBLife, %d pages, seed %d)\n", so.Pages, o.Seed)
	fmt.Fprintf(o.Out, "  store: %d shards, %d tokens, %.1f MB on disk (eager estimate %.1f MB, budget %.1f MB)\n",
		res.Shards, res.Vocab, res.StoreMB, res.EagerEstimateMB, res.BudgetMB)
	if res.IngestS > 0 {
		fmt.Fprintf(o.Out, "  ingest: %.2fs (%.0f pages/s)\n", res.IngestS, res.IngestPagesPerS)
	}
	fmt.Fprintf(o.Out, "  index load: %.3fs\n", res.IndexLoadS)
	fmt.Fprintf(o.Out, "  sweep: %.2fs (%.0f pages/s), resident %.1f MB, %d releases\n",
		res.SweepS, res.SweepPagesPerS, res.ResidentMB, res.Releases)
	fmt.Fprintf(o.Out, "  probe: %d queries in %.2fs (%.0f pages/s), %d matches, postings-backed\n",
		so.Probes, res.ProbeS, res.ProbePagesPerS, res.ProbeMatches)
	fmt.Fprintf(o.Out, "  peak RSS %.1f MB; identity checked: %t\n", res.PeakRSSMB, res.IdentityChecked)
	return res, nil
}

// samplePages regenerates the first n pages of the stream as standalone
// probe documents (distinct IDs, so they never alias store handles).
func samplePages(cfg corpus.DBLifeConfig, n int) ([]*text.Document, error) {
	var out []*text.Document
	stop := errors.New("done")
	err := corpus.StreamDBLife(cfg, nil, func(id, src string) error {
		out = append(out, markup.MustParse(fmt.Sprintf("probe-%d", len(out)), src))
		if len(out) >= n {
			return stop
		}
		return nil
	})
	if err != nil && !errors.Is(err, stop) {
		return nil, err
	}
	return out, nil
}

// eagerDocs materializes the whole corpus in memory — the pre-store
// evaluation shape, used as the identity baseline.
func eagerDocs(cfg corpus.DBLifeConfig) []*text.Document {
	var out []*text.Document
	_ = corpus.StreamDBLife(cfg, nil, func(id, src string) error {
		out = append(out, markup.MustParse(id, src))
		return nil
	})
	return out
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// dirSize totals the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// peakRSSMB reads the process peak resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return float64(kb) / 1024
			}
		}
	}
	return 0
}
