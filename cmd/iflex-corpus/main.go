// Command iflex-corpus generates the synthetic evaluation corpora and
// writes them to disk as .html pages plus a ground-truth summary, so that
// the iflex CLI (and any external tool) can run against them.
//
// Usage:
//
//	iflex-corpus -domain movies -records 100 -out ./data
//
// creates ./data/IMDB/*.html, ./data/Ebert/*.html, ./data/Prasanna/*.html
// and ./data/truth.txt.
//
// At corpus scale, -store streams pages straight into a sharded document
// store with a persistent inverted token index (internal/store) instead
// of one file per page:
//
//	iflex-corpus -domain dblife -pages 1000000 -store ./dblife.ifs
//
// The dblife generator streams: resident memory stays constant in the
// page count (pass -truth=false to keep the ground-truth accumulation
// flat too).
//
// -mutate updates an existing store in place, simulating a live corpus:
//
//	iflex-corpus -domain books -records 5000 -seed 2 -mutate pct=1 -store ./books.ifs
//
// regenerates the corpus at the given seed and commits the regenerated
// content for a deterministic pct% sample of the store's live pages as
// one mutation generation (the original ingest seed must differ for the
// content to actually change). -store refuses to overwrite a non-empty
// directory unless -force is given.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"iflex/internal/corpus"
	"iflex/internal/similarity"
	"iflex/internal/store"
)

func main() {
	var (
		domain   = flag.String("domain", "movies", "domain to generate: movies, dblp, books, dblife")
		records  = flag.Int("records", 100, "records per table (pages for dblife)")
		pages    = flag.Int("pages", 0, "pages to generate (overrides -records; dblife streams at any scale)")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("out", "corpus-out", "output directory for .html pages")
		storeDir = flag.String("store", "", "write a sharded document store to this directory instead of .html pages")
		truth    = flag.Bool("truth", true, "collect and write ground truth (disable for constant-memory streaming)")
		mutate   = flag.String("mutate", "", `mutate an existing store in place: "pct=N" commits regenerated content for N% of its live pages (requires -store)`)
		force    = flag.Bool("force", false, "allow -store to overwrite a directory that already holds a store")
	)
	flag.Parse()
	n := *records
	if *pages > 0 {
		n = *pages
	}
	var err error
	switch {
	case *mutate != "":
		if *storeDir == "" {
			fmt.Fprintln(os.Stderr, "iflex-corpus: -mutate requires -store")
			os.Exit(2)
		}
		err = runMutate(*domain, n, *seed, *storeDir, *mutate)
	case *storeDir != "":
		// Refuse to write a store over a directory that already has
		// content: ingesting into it would shadow (not replace) the old
		// shards and index, leaving a corrupt hybrid.
		if entries, derr := os.ReadDir(*storeDir); derr == nil && len(entries) > 0 {
			if !*force {
				fmt.Fprintf(os.Stderr,
					"iflex-corpus: store directory %s already contains %d entries; refusing to overwrite an existing store (use -mutate to update it in place, or -force to overwrite)\n",
					*storeDir, len(entries))
				os.Exit(2)
			}
			if err := os.RemoveAll(*storeDir); err != nil {
				fmt.Fprintln(os.Stderr, "iflex-corpus:", err)
				os.Exit(1)
			}
		}
		err = runStore(*domain, n, *seed, *storeDir, *truth)
	default:
		err = run(*domain, n, *seed, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iflex-corpus:", err)
		os.Exit(1)
	}
}

// generatePages renders the whole corpus at a seed into an id -> raw
// page map — the content source for -mutate (page ids are positional,
// so the same id regenerates to different content under a new seed).
func generatePages(domain string, n int, seed int64) (map[string]string, error) {
	pages := map[string]string{}
	if domain == "dblife" {
		err := corpus.StreamDBLife(corpus.DBLifeConfig{Pages: n, Seed: seed}, nil,
			func(id, src string) error { pages[id] = src; return nil })
		return pages, err
	}
	var c *corpus.Corpus
	switch domain {
	case "movies":
		c = corpus.Movies(corpus.MoviesConfig{Records: n, Seed: seed})
	case "dblp":
		c = corpus.DBLP(corpus.DBLPConfig{Records: n, Seed: seed})
	case "books":
		c = corpus.Books(corpus.BooksConfig{Records: n, Seed: seed})
	default:
		return nil, fmt.Errorf("unknown domain %q (want movies, dblp, books, dblife)", domain)
	}
	for _, t := range c.Tables {
		for i, raw := range t.Raw {
			pages[t.Docs[i].ID()] = raw
		}
	}
	return pages, nil
}

// runMutate commits one mutation generation to an existing store:
// regenerated content for a deterministic pct% sample of its live pages.
func runMutate(domain string, n int, seed int64, dir, spec string) error {
	val, ok := strings.CutPrefix(spec, "pct=")
	if !ok {
		return fmt.Errorf(`bad -mutate spec %q (want "pct=N")`, spec)
	}
	pct, err := strconv.ParseFloat(val, 64)
	if err != nil || pct <= 0 || pct > 100 {
		return fmt.Errorf("bad -mutate percentage %q (want 0 < N <= 100)", val)
	}
	pages, err := generatePages(domain, n, seed)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, note := range st.Recovery() {
		fmt.Fprintf(os.Stderr, "iflex-corpus: %s: recovery: %s\n", dir, note)
	}

	// Deterministic sample: order live ids by a seeded hash and take the
	// first pct%. The same seed always mutates the same pages.
	ids := make([]string, 0, st.Len())
	for _, d := range st.Docs() {
		ids = append(ids, d.ID())
	}
	sort.Slice(ids, func(i, j int) bool {
		hi, hj := mutHash(ids[i], seed), mutHash(ids[j], seed)
		if hi != hj {
			return hi < hj
		}
		return ids[i] < ids[j]
	})
	k := int(float64(len(ids))*pct/100 + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(ids) {
		k = len(ids)
	}

	m, err := st.BeginMutation()
	if err != nil {
		return err
	}
	for _, id := range ids[:k] {
		raw, ok := pages[id]
		if !ok {
			return fmt.Errorf("no regenerated page for %q — do -domain and -records match the ingested corpus?", id)
		}
		if err := m.Put(id, raw); err != nil {
			return err
		}
	}
	d, err := m.Commit()
	if err != nil {
		return err
	}
	fmt.Printf("mutated %d of %d pages (%.2f%%) in %s: generation %d (+%d ~%d -%d)\n",
		k, len(ids), 100*float64(k)/float64(len(ids)), dir, st.Generation(),
		len(d.Added), len(d.Updated), len(d.Removed))
	return nil
}

// mutHash is seeded FNV-1a over a document id.
func mutHash(s string, seed int64) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(seed) * 0x9E3779B97F4A7C15)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// runStore ingests the generated pages into a sharded document store.
// The dblife domain streams page by page — no page, document, or index
// posting list is retained beyond the store writer's bounded state — so
// million-page corpora build in constant resident memory. The record
// domains are small; they generate eagerly and ingest from memory.
func runStore(domain string, n int, seed int64, dir string, withTruth bool) error {
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		return err
	}
	if domain == "dblife" {
		var tr *corpus.DBLifeTruth
		if withTruth {
			tr = &corpus.DBLifeTruth{}
		}
		err := corpus.StreamDBLife(corpus.DBLifeConfig{Pages: n, Seed: seed}, tr,
			func(id, src string) error { return w.Add(id, src) })
		if err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		man := w.Manifest()
		fmt.Printf("wrote %d pages (%d shards, %d index tokens) to %s\n",
			man.Docs, man.Shards, man.Vocab, dir)
		if withTruth {
			f, err := os.Create(filepath.Join(dir, "truth.txt"))
			if err != nil {
				return err
			}
			defer f.Close()
			writeTruthSet(f, "Panel", tr.TruthPanel())
			writeTruthSet(f, "Project", tr.TruthProject())
			writeTruthSet(f, "Chair", tr.TruthChair())
		}
		return nil
	}
	var c *corpus.Corpus
	switch domain {
	case "movies":
		c = corpus.Movies(corpus.MoviesConfig{Records: n, Seed: seed})
	case "dblp":
		c = corpus.DBLP(corpus.DBLPConfig{Records: n, Seed: seed})
	case "books":
		c = corpus.Books(corpus.BooksConfig{Records: n, Seed: seed})
	default:
		return fmt.Errorf("unknown domain %q (want movies, dblp, books, dblife)", domain)
	}
	var tableNames []string
	for name := range c.Tables {
		tableNames = append(tableNames, name)
	}
	sort.Strings(tableNames)
	total := 0
	for _, name := range tableNames {
		t := c.Tables[name]
		for i, raw := range t.Raw {
			if err := w.Add(t.Docs[i].ID(), raw); err != nil {
				return err
			}
			total++
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d pages to %s\n", total, dir)
	return nil
}

func writeTruthSet(f *os.File, label string, set map[string]bool) {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(f, "## %s (%d)\n", label, len(keys))
	for _, k := range keys {
		fmt.Fprintln(f, k)
	}
}

func run(domain string, records int, seed int64, out string) error {
	var c *corpus.Corpus
	switch domain {
	case "movies":
		c = corpus.Movies(corpus.MoviesConfig{Records: records, Seed: seed})
	case "dblp":
		c = corpus.DBLP(corpus.DBLPConfig{Records: records, Seed: seed})
	case "books":
		c = corpus.Books(corpus.BooksConfig{Records: records, Seed: seed})
	case "dblife":
		c = corpus.DBLife(corpus.DBLifeConfig{Pages: records, Seed: seed})
	default:
		return fmt.Errorf("unknown domain %q (want movies, dblp, books, dblife)", domain)
	}

	var tableNames []string
	for name := range c.Tables {
		tableNames = append(tableNames, name)
	}
	sort.Strings(tableNames)
	for _, name := range tableNames {
		t := c.Tables[name]
		dir := filepath.Join(out, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for i, raw := range t.Raw {
			path := filepath.Join(dir, fmt.Sprintf("%s-%04d.html", t.Docs[i].ID(), i))
			if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d pages to %s\n", len(t.Raw), dir)
	}

	truth, err := os.Create(filepath.Join(out, "truth.txt"))
	if err != nil {
		return err
	}
	defer truth.Close()
	writeSet := func(label string, set map[string]bool) {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(truth, "## %s (%d)\n", label, len(keys))
		for _, k := range keys {
			fmt.Fprintln(truth, k)
		}
	}
	switch domain {
	case "movies":
		writeSet("T1", c.TruthT1())
		writeSet("T2", c.TruthT2())
		writeSet("T3", c.TruthT3(similarity.Similar))
	case "dblp":
		writeSet("T4", c.TruthT4())
		writeSet("T5", c.TruthT5())
		writeSet("T6", c.TruthT6(similarity.Similar))
	case "books":
		writeSet("T7", c.TruthT7())
		writeSet("T8", c.TruthT8())
		writeSet("T9", c.TruthT9(similarity.Similar))
	case "dblife":
		writeSet("Panel", c.DBLife.TruthPanel())
		writeSet("Project", c.DBLife.TruthProject())
		writeSet("Chair", c.DBLife.TruthChair())
	}
	fmt.Printf("wrote ground truth to %s\n", filepath.Join(out, "truth.txt"))
	return nil
}
