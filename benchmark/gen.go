package main

import (
	"math"
	"sort"

	"iflex/internal/corpus"
)

// sizes fixes every workload's input size and round count. They are
// constants of the benchmark: the same on both sides of any comparison.
type sizes struct {
	pool           int // distinct corpora a library workload cycles through
	joinRecords    int // join_converge: T9 records per table
	extractRecords int // extract_converge: T8 records
	serveRecords   int // serve_sessions: T9 records per table, shipped inline
	servePool      int // serve_sessions: distinct corpora
	dblifePages    int // store_cycle: pages ingested, swept and probed
	booksRecords   int // store_cycle: T9 records per table in the mutated store
	commits        int // store_cycle: commit→reeval pairs per round
	putPages       int // store_cycle: pages rewritten by one commit
	probePages     int // store_cycle: whole-page similarity probes
	prefixPages    int // store_cycle: prefix the probe identity check runs on
	replayPages    int // traced pass: pages a layer replay touches at most
	maxSteps       int // steps after which a dialogue is cut short; 0 = never

	// Rounds one run measures when asked for runSeconds: constants of the
	// benchmark, so that a slower program measures the same work for longer.
	joinRounds, extractRounds, storeRounds int
	serveSessions                          int // per client
}

// runSeconds is the run length BENCHMARK.json asks for. The round counts
// above are sized for it (13 to 17 s of measured rounds on the 2-vCPU
// reference box); another --seconds scales them in proportion.
const runSeconds = 20

// minRounds keep a median meaningful however short a run is asked for.
const minRounds = 10

// rounds scales a workload's round count to the seconds asked for, never
// below minRounds (toy sizes have fewer to begin with and keep theirs).
func (o options) rounds(perRun int) int {
	return max(min(minRounds, perRun), int(math.Round(float64(perRun)*o.seconds/runSeconds)))
}

var fullSizes = sizes{
	pool: 6, joinRecords: 400, extractRecords: 2000,
	serveRecords: 24, servePool: 64,
	dblifePages: 6000, booksRecords: 400, commits: 5, putPages: 8,
	probePages: 8, prefixPages: 2000, replayPages: 2000,
	joinRounds: 24, extractRounds: 18, storeRounds: 14, serveSessions: 800,
}

// page is one generated page: the only form in which the program under
// test ever sees the corpus.
type page struct{ id, src string }

// corpusSeed derives the seed of the i'th corpus of a run, so that runs
// with different seeds share no corpus.
func corpusSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// booksPool generates k independent corpora of a Books task.
func booksPool(task *corpus.Task, records, k int, seed int64) []*corpus.Corpus {
	pool := make([]*corpus.Corpus, k)
	for i := range pool {
		pool[i] = task.Generate(records, corpusSeed(seed, i))
	}
	return pool
}

// pagesOf lists a corpus's pages table by table in name order, so that
// ingest order is deterministic.
func pagesOf(c *corpus.Corpus) []page {
	names := make([]string, 0, len(c.Tables))
	for name := range c.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []page
	for _, name := range names {
		t := c.Tables[name]
		for i, raw := range t.Raw {
			out = append(out, page{t.Docs[i].ID(), raw})
		}
	}
	return out
}

// dblifePages streams n DBLife page sources into memory.
func dblifePages(n int, seed int64) []page {
	out := make([]page, 0, n)
	_ = corpus.StreamDBLife(corpus.DBLifeConfig{Pages: n, Seed: seed}, nil, func(id, src string) error {
		out = append(out, page{id, src})
		return nil
	})
	return out
}

// probePages picks the n pages of median source length as probe pages.
// How many pages a probe matches depends on what kind of page it is; the
// first pages of a crawl are of other kinds on every seed (900 to 8600
// matches for eight of them), pages of median length are not (13 700 to
// 14 800).
func probePages(crawl []page, n int) []page {
	byLen := append([]page(nil), crawl...)
	sort.SliceStable(byLen, func(i, j int) bool { return len(byLen[i].src) < len(byLen[j].src) })
	lo := (len(byLen) - n) / 2
	return byLen[lo : lo+n]
}

// mutationBatches draws the pages each of a round's commits rewrites: a
// seeded sample of c's page ids, re-rendered from a corpus of another
// seed so that titles and prices really change.
func mutationBatches(task *corpus.Task, c *corpus.Corpus, records, commits, perCommit int, seed int64) [][]page {
	regen := map[string]string{}
	for _, p := range pagesOf(task.Generate(records, seed+500)) {
		regen[p.id] = p.src
	}
	pages := pagesOf(c)
	sort.Slice(pages, func(i, j int) bool {
		hi, hj := idHash(pages[i].id, seed), idHash(pages[j].id, seed)
		if hi != hj {
			return hi < hj
		}
		return pages[i].id < pages[j].id
	})
	batches := make([][]page, commits)
	for b := range batches {
		for _, p := range pages[b*perCommit : (b+1)*perCommit] {
			batches[b] = append(batches[b], page{p.id, regen[p.id]})
		}
	}
	return batches
}

// idHash is seeded FNV-1a over a page id.
func idHash(s string, seed int64) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(seed) * 0x9E3779B97F4A7C15)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
