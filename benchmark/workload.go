package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"

	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
)

// options are what one run is asked to do.
type options struct {
	seed    int64
	seconds float64 // run length asked for; scales the round counts
	trace   bool
	procs   int    // GOMAXPROCS, and the most goroutines or connections the load uses
	outDir  string // where a run builds its stores and writes its trace
	sz      sizes
}

// workload is one closed-loop scenario. setUp builds its inputs from
// the seed; prepare runs once, untimed, after it (ground truth, reference
// results); measure runs the rounds; replay (traced pass only) replays single layer functions on
// the workload's own inputs; close removes what the workload left on disk.
type workload interface {
	setUp() error
	prepare() error
	measure(run *runData) error
	replay(r *rec) error
	close()
}

// runData is what a run leaves behind.
type runData struct {
	opt    options
	ops    *tally
	setups []float64 // seconds of each set-up
	plain  *rec      // samples of untraced rounds: the end-to-end numbers
	traced *rec      // samples of traced rounds and replays: the per-layer numbers
	tr     *tracer   // nil on an untraced run
	noise  []float64 // seconds of each run of the noise sentinel
	rounds int

	// overlapping is set by a workload whose rounds overlap in time, where
	// CPU time and allocation cannot be attributed to single rounds and the
	// phase totals are divided by the rounds instead.
	overlapping            bool
	phaseCPU, phaseAllocMB float64
	gcCPU, numGC           float64
	heapPeakMB, peakRSSMB  float64
}

// recFor picks the recorder of round i: on a traced run odd rounds carry
// spans and even rounds do not, so the two kinds interleave in time and
// their median round times give the tracing overhead.
func (d *runData) recFor(i int) *rec {
	if d.tr != nil && i%2 == 1 {
		return d.traced
	}
	return d.plain
}

// corpusFor picks the corpus of round i out of n. On a traced run a
// traced round and the untraced round before it share a corpus, so that
// the overhead compares like with like.
func (d *runData) corpusFor(i, n int) int {
	if d.tr != nil {
		i /= 2
	}
	return i % n
}

// noiseSpread is the sentinel's p90 ÷ p10; above 1.25 the machine, not
// the code, moved during the run.
func (d *runData) noiseSpread() float64 {
	return ratio(quantile(d.noise, 0.9), quantile(d.noise, 0.1))
}

// phase brackets the measured phase, or one part of it, with
// process-wide counters; end adds what the part used to the run's totals.
type phase struct {
	cpu, gcCPU float64
	alloc      uint64
	numGC      uint32
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func beginPhase() phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{cpu: cpuSeconds(), gcCPU: gcCPUSeconds(), alloc: ms.TotalAlloc, numGC: ms.NumGC}
}

func (p phase) end(d *runData) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.phaseCPU += cpuSeconds() - p.cpu
	d.gcCPU += gcCPUSeconds() - p.gcCPU
	d.phaseAllocMB += float64(ms.TotalAlloc-p.alloc) / (1 << 20)
	d.numGC += float64(ms.NumGC - p.numGC)
	d.heapPeakMB = math.Max(d.heapPeakMB, float64(ms.HeapInuse)/(1<<20))
	d.peakRSSMB = peakRSSMB()
}

// runSequential drives a workload whose rounds run one after another:
// one discarded warm-up round, then the given number of rounds. Between
// rounds, outside every timed region, it collects garbage and runs the
// noise sentinel. Each round leaves its wall time, CPU time and allocated
// megabytes.
func runSequential(d *runData, rounds, corpora int, round func(corpus int, r *rec) error) error {
	if err := round(0, newRec(&tally{})); err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	var ms runtime.MemStats
	p := beginPhase()
	defer p.end(d)
	for i := 0; i < rounds; i++ {
		runtime.GC()
		d.noise = append(d.noise, refKernel())
		r, corpus := d.recFor(i), d.corpusFor(i, corpora)
		r.round = i
		runtime.ReadMemStats(&ms)
		alloc0, cpu0 := ms.TotalAlloc, cpuSeconds()
		wall, err := r.do("harness.round", 1, func() error { return round(corpus, r) })
		if err != nil {
			return err
		}
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms)
		r.add("e2e.round", wall.Seconds())
		r.add("e2e.cpu", cpu)
		r.addFor("e2e.alloc_mb", corpus, float64(ms.TotalAlloc-alloc0)/(1<<20))
		d.heapPeakMB = math.Max(d.heapPeakMB, float64(ms.HeapInuse)/(1<<20))
		d.rounds++
	}
	return nil
}

// askEverything is the convergence window every session runs with. The
// assistant normally stops once three iterations in a row leave the
// result's size unchanged; whether that happens after ten steps or never
// depends on the luck of the sampled subset, which would put sessions of
// two very different lengths into one median. A window longer than any
// dialogue makes every developer answer every question the assistant
// has, so rounds are alike on every seed.
const askEverything = 50

// sessionConfig is the configuration of a library session.
func (o options) sessionConfig(strategy assistant.Strategy, workers int) assistant.Config {
	return assistant.Config{
		Strategy: strategy, Workers: workers, SubsetSeed: uint64(o.seed),
		ConvergenceWindow: askEverything, MaxIterations: o.sz.maxSteps,
	}
}

// converge drives one library session the way a developer would: create
// it, answer each step's questions from the oracle until the assistant is
// done, finalize, and render the table. It leaves the time to the first
// question (creation + first step) and the time of every later step as
// samples. The caller records the session's engine counters once it is
// done with the session.
func converge(r *rec, create func() *assistant.Session, oracle assistant.Oracle) (*assistant.Session, *assistant.Result, string, error) {
	var s *assistant.Session
	created, _ := r.do("assistant.create", 1, func() error { s = create(); return nil })
	var answers []assistant.Answer
	steps := 0
	for {
		var sr *assistant.StepResult
		d, err := r.do("assistant.step", 1, func() (err error) { sr, err = s.Step(answers); return err })
		if err != nil {
			return nil, nil, "", err
		}
		if steps++; steps == 1 {
			r.add("e2e.first_step", (created + d).Seconds())
		} else {
			r.add("e2e.step", d.Seconds())
		}
		if sr.Done {
			break
		}
		answers = answers[:0]
		for _, q := range sr.Questions {
			answers = append(answers, oracle.Answer(q))
		}
	}
	var res *assistant.Result
	if _, err := r.do("assistant.finalize", 1, func() (err error) { res, err = s.Finalize(0); return err }); err != nil {
		return nil, nil, "", err
	}
	var table string
	r.do("compact.string", len(res.Final.Tuples), func() error { table = res.Final.String(); return nil })
	r.add("assistant.steps", float64(steps))
	r.add("assistant.questions", float64(res.QuestionsAsked))
	return s, res, table, nil
}

// checkSuperset is the paper's contract against ground truth: once the
// developer has answered everything, no correct answer was lost.
func checkSuperset(ops *tally, what string, res *assistant.Result, truth map[string]bool) {
	missing := corpus.UncoveredTruth(res.Final, truth)
	ops.check(len(missing) == 0, "%s: %d of %d true answers lost", what, len(missing), len(truth))
}

// engineOps are the operator kinds whose inclusive seconds are reported.
var engineOps = []string{"simjoin", "constrain", "from", "compare", "annotate", "project", "scan"}

// addEngineStats records one round's engine counters. Operator seconds
// are inclusive: a parent operator's time contains its children's.
func addEngineStats(r *rec, corpus int, s engine.StatsSnapshot) {
	for name, v := range map[string]float64{
		"func_calls": float64(s.FuncCalls), "tuples_built": float64(s.TuplesBuilt),
		"nodes_evaluated": float64(s.NodesEvaluated), "cache_hit_rate": s.CacheHitRate,
		"tuples_reused": float64(s.TuplesReused), "tuples_recomputed": float64(s.TuplesRecomputed),
		"delta_reuse_rate": s.DeltaReuseRate, "limit_fallbacks": float64(s.LimitFallbacks),
		"cache_bytes": float64(s.CacheBytes), "pool_utilization": s.PoolUtilization,
		"block_idx_postings": float64(s.BlockIdxPostings), "index_token_hits": float64(s.IndexTokenHits),
		"verify_calls": float64(s.VerifyCalls), "refine_calls": float64(s.RefineCalls),
		"memo_hit_rate": s.FeatureMemoRate,
	} {
		r.addFor("engine."+name, corpus, v)
	}
	for _, op := range engineOps {
		r.addFor("engine.op_"+op+"_s", corpus, s.OpTimeSeconds[op])
	}
}
