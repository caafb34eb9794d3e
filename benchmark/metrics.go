package main

// workloadDef names one workload and says why it is in the benchmark.
type workloadDef struct{ name, why string }

var workloadDefs = []workloadDef{
	{"join_converge", "Library path, T9 title join at 400 records per table, closed loop, one developer: engine similarity join and similarity do most of the work, feature almost none."},
	{"extract_converge", "Library path, T8 with four from() attributes at 2000 records and no join, closed loop: engine constraints, feature Verify/Refine, text and GC work; similarity join does none."},
	{"serve_sessions", "In-process iflexd over loopback HTTP, one closed-loop client per processor looping whole 24-record T9 sessions (inline pages, seq): JSON, page parsing and streaming are a visible share."},
	{"store_cycle", "One durable store's day per round: bulk ingest of 6000 pages, open, budgeted sweep, posting-served probe, then a store-backed T9 session at 400 records with five fsync'd commit-reeval cycles."},
}

// metricDef is one reported number. End-to-end metrics come from the
// untraced rounds and carry the bound by which they may worsen; per-layer
// metrics come from the traced rounds and the layer replays.
type metricDef struct {
	name, unit, better string
	bound              float64
	value              func(d *runData) float64
}

// defsFor lists what a pass reports: the untraced pass the end-to-end
// metrics, the traced pass the per-layer metrics.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayerDefs
	}
	return endToEndDefs
}

// Shorthands for the value functions. Per-layer values read the traced
// recorder.
func med(name string, scale float64) func(*runData) float64 {
	return func(d *runData) float64 { return d.traced.med(name) * scale }
}

// perCorpus reads a per-round value that depends on the corpus only.
func perCorpus(name string) func(*runData) float64 {
	return func(d *runData) float64 { return d.traced.perCorpus(name) }
}

func perUnit(name string, scale float64) func(*runData) float64 {
	return func(d *runData) float64 { return d.traced.perUnit(name) * scale }
}

func quant(name string, q, scale float64) func(*runData) float64 {
	return func(d *runData) float64 { return quantile(d.traced.samples[name], q) * scale }
}

// batchRate is the size of one batch ÷ the median batch time.
func batchRate(name string) func(*runData) float64 {
	return func(d *runData) float64 {
		return ratio(ratio(float64(d.traced.batch[name]), float64(len(d.traced.samples[name]))), d.traced.med(name))
	}
}

// share is sum(num) ÷ sum(den) over the traced samples or batches.
func share(num, denBatch string) func(*runData) float64 {
	return func(d *runData) float64 { return ratio(sum(d.traced.samples[num]), float64(d.traced.batch[denBatch])) }
}

const (
	ms = 1e3
	us = 1e6
	ns = 1e9
)

// plainPerCorpus reads the untraced rounds' per-corpus values.
func plainPerCorpus(name string) func(*runData) float64 {
	return func(d *runData) float64 { return d.plain.perCorpus(name) }
}

// The end-to-end metrics, all from the untraced rounds and reported by all
// four workloads: the times a developer or tenant waits for, what they
// cost in CPU and memory, and two deterministic work counters that show
// a change of work where machine noise hides a change of time. The bounds
// are measured across seeds; see README.md.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, func(d *runData) float64 { return median(d.setups) }},
	{"round_p50_s", "s", "lower", 0.25, func(d *runData) float64 { return d.plain.med("e2e.round") }},
	{"first_step_p50_ms", "ms", "lower", 0.25, func(d *runData) float64 { return d.plain.med("e2e.first_step") * ms }},
	{"cpu_s_per_round", "s", "lower", 0.25, func(d *runData) float64 {
		if d.overlapping {
			return ratio(d.phaseCPU, float64(d.rounds))
		}
		return d.plain.med("e2e.cpu")
	}},
	{"alloc_mb_per_round", "MB", "lower", 0.04, func(d *runData) float64 {
		if d.overlapping {
			return ratio(d.phaseAllocMB, float64(d.rounds))
		}
		return d.plain.perCorpus("e2e.alloc_mb")
	}},
	{"peak_rss_mb", "MB", "lower", 0.15, func(d *runData) float64 { return d.peakRSSMB }},
	{"tuples_built_per_round", "count", "lower", 0.15, plainPerCorpus("engine.tuples_built")},
	{"feature_calls_per_round", "count", "lower", 0.12, func(d *runData) float64 {
		return d.plain.perCorpus("engine.verify_calls") + d.plain.perCorpus("engine.refine_calls")
	}},
}

var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		// The wait per answered question: the median over every later step of
		// the traced run's untraced rounds. Not gated: steps are of several
		// kinds and the median moves between them from seed to seed.
		{"step_p50_ms", "ms", "lower", 0, func(d *runData) float64 { return d.plain.med("e2e.step") * ms }},
		{"markup.parse_us_per_page", "us", "lower", 0, perUnit("markup.parse", us)},
		{"markup.parse_mb_per_s", "MB/s", "higher", 0, func(d *runData) float64 {
			return ratio(sum(d.traced.samples["markup.bytes"])/(1<<20), sum(d.traced.samples["markup.parse"]))
		}},
		{"markup.pages", "count", "higher", 0, func(d *runData) float64 {
			return ratio(float64(d.traced.batch["markup.parse"]), float64(len(d.traced.samples["markup.parse"])))
		}},
		{"text.tokenize_us_per_page", "us", "lower", 0, perUnit("text.tokenize", us)},
		{"text.tokens_per_page", "count", "lower", 0, share("text.tokens", "text.tokenize")},
		{"text.format_assignments_ns", "ns", "lower", 0, perUnit("text.format_assignments", ns)},
		{"similarity.tokens_ns_per_value", "ns", "lower", 0, perUnit("similarity.tokens", ns)},
		{"similarity.similar_tokens_ns_per_pair", "ns", "lower", 0, perUnit("similarity.similar_tokens", ns)},
		{"similarity.true_pair_share", "ratio", "higher", 0, share("similarity.true_pairs", "similarity.similar_tokens")},
		{"feature.verify_ns_per_call", "ns", "lower", 0, perUnit("feature.verify", ns)},
		{"feature.refine_ns_per_call", "ns", "lower", 0, perUnit("feature.refine", ns)},
		{"feature.verify_calls", "count", "lower", 0, perCorpus("engine.verify_calls")},
		{"feature.refine_calls", "count", "lower", 0, perCorpus("engine.refine_calls")},
		{"feature.memo_hit_rate", "ratio", "higher", 0, perCorpus("engine.memo_hit_rate")},
		// An estimate, since the harness cannot see inside a step: the
		// round's calls that missed the memo, at the replay's cold unit
		// costs, as a share of the traced round.
		{"feature.est_round_share", "ratio", "lower", 0, func(d *runData) float64 {
			t := d.traced
			cold := t.perCorpus("engine.verify_calls")*t.perUnit("feature.verify") + t.perCorpus("engine.refine_calls")*t.perUnit("feature.refine")
			return ratio(cold*(1-t.perCorpus("engine.memo_hit_rate")), t.med("e2e.round"))
		}},
		{"compact.string_us_per_tuple", "us", "lower", 0, perUnit("compact.string", us)},
		{"compact.canonical_us_per_tuple", "us", "lower", 0, perUnit("compact.canonical", us)},
		{"compact.fingerprint_ns_per_tuple", "ns", "lower", 0, perUnit("compact.fingerprint", ns)},
		{"compact.mem_bytes_per_tuple", "B", "lower", 0, med("compact.mem_bytes_per_tuple", 1)},
		{"alog.parse_us", "us", "lower", 0, med("alog.parse", us)},
		{"alog.unfold_us", "us", "lower", 0, med("alog.unfold", us)},
		{"engine.compile_us", "us", "lower", 0, med("engine.compile", us)},
		{"opt.optimize_us", "us", "lower", 0, med("opt.optimize", us)},
		{"engine.execute_full_ms", "ms", "lower", 0, med("engine.execute_full", ms)},
	}
	// Per-round engine counters, as the session reports them.
	for _, c := range []struct{ name, unit, better string }{
		{"func_calls", "count", "lower"}, {"tuples_built", "count", "lower"},
		{"nodes_evaluated", "count", "lower"}, {"cache_hit_rate", "ratio", "higher"},
		{"tuples_reused", "count", "higher"}, {"tuples_recomputed", "count", "lower"},
		{"delta_reuse_rate", "ratio", "higher"}, {"limit_fallbacks", "count", "lower"},
		{"cache_bytes", "B", "lower"}, {"pool_utilization", "ratio", "higher"},
		{"block_idx_postings", "count", "higher"}, {"index_token_hits", "count", "higher"},
	} {
		defs = append(defs, metricDef{"engine." + c.name, c.unit, c.better, 0, perCorpus("engine." + c.name)})
	}
	// Inclusive operator seconds per round: a parent's time contains its
	// children's, so the entries do not add up to the round.
	for _, op := range engineOps {
		defs = append(defs, metricDef{"engine.op_" + op + "_s", "s", "lower", 0, perCorpus("engine.op_" + op + "_s")})
	}
	return append(defs, []metricDef{
		{"assistant.create_ms", "ms", "lower", 0, med("assistant.create", ms)},
		{"assistant.finalize_p50_ms", "ms", "lower", 0, med("assistant.finalize", ms)},
		{"assistant.step_p95_ms", "ms", "lower", 0, quant("e2e.step", 0.95, ms)},
		{"assistant.step_p99_ms", "ms", "lower", 0, quant("e2e.step", 0.99, ms)},
		{"assistant.steps_per_session", "count", "lower", 0, med("assistant.steps", 1)},
		{"assistant.questions_per_session", "count", "lower", 0, med("assistant.questions", 1)},
		// The same sessions under the product's default convergence window.
		{"assistant.default_round_ms", "ms", "lower", 0, med("assistant.default_round", ms)},
		{"assistant.default_steps_per_session", "count", "lower", 0, med("assistant.default_steps", 1)},

		// The store's five kinds of work as a user of store_cycle sees them.
		{"store.ingest_pages_per_s", "1/s", "higher", 0, batchRate("store.ingest")},
		{"store.sweep_pages_per_s", "1/s", "higher", 0, batchRate("store.text_load")},
		{"store.probe_pages_per_s", "1/s", "higher", 0, batchRate("engine.probe")},
		{"store.commit_p50_ms", "ms", "lower", 0, med("store.mutation", ms)},
		{"store.reeval_p50_ms", "ms", "lower", 0, med("assistant.reeval", ms)},

		{"store.add_us_per_page", "us", "lower", 0, perUnit("store.add", us)},
		{"store.close_ms", "ms", "lower", 0, med("store.close", ms)},
		{"store.open_ms", "ms", "lower", 0, med("store.open", ms)},
		{"store.text_load_us_per_page", "us", "lower", 0, perUnit("store.text_load", us)},
		{"store.loads", "count", "lower", 0, med("store.loads", 1)},
		{"store.releases", "count", "lower", 0, med("store.releases", 1)},
		{"store.resident_mb", "MB", "lower", 0, med("store.resident_mb", 1)},
		{"store.postings_decode_us_per_token", "us", "lower", 0, perUnit("store.postings_decode", us)},
		{"store.postings_hit_us_per_token", "us", "lower", 0, perUnit("store.postings_hit", us)},
		{"store.block_tokens_ns_per_doc", "ns", "lower", 0, perUnit("store.block_tokens", ns)},
		{"store.put_us_per_page", "us", "lower", 0, perUnit("store.put", us)},
		{"store.commit_ms", "ms", "lower", 0, med("store.commit", ms)},
		{"store.bytes_written_per_page", "B", "lower", 0, med("store.bytes_written_per_page", 1)},
		{"store.bytes_per_page", "B", "lower", 0, med("store.bytes_per_page", 1)},
		{"store.fsyncs_per_commit", "count", "lower", 0, med("store.fsyncs_per_commit", 1)},
		{"store.fsyncs_per_ingest", "count", "lower", 0, med("store.fsyncs_per_ingest", 1)},

		{"server.create_p50_ms", "ms", "lower", 0, med("server.create", ms)},
		{"server.step_p95_ms", "ms", "lower", 0, quant("server.step", 0.95, ms)},
		{"server.step_p99_ms", "ms", "lower", 0, quant("server.step", 0.99, ms)},
		{"server.result_p50_ms", "ms", "lower", 0, med("server.result", ms)},
		{"server.result_rows_per_s", "1/s", "higher", 0, func(d *runData) float64 {
			return ratio(float64(d.traced.batch["server.result"]), sum(d.traced.samples["server.result"]))
		}},
		{"server.delete_p50_ms", "ms", "lower", 0, med("server.delete", ms)},
		{"server.stats_p50_ms", "ms", "lower", 0, med("server.stats", ms)},
		{"server.resp_bytes_per_step", "B", "lower", 0, med("server.resp_bytes_per_step", 1)},
		{"server.http_overhead_ms", "ms", "lower", 0, med("server.http_overhead", ms)},
		{"server.errors", "count", "lower", 0, med("server.errors", 1)},

		{"runtime.gc_cpu_share", "ratio", "lower", 0, func(d *runData) float64 { return ratio(d.gcCPU, d.phaseCPU) }},
		{"runtime.num_gc_per_round", "count", "lower", 0, func(d *runData) float64 { return ratio(d.numGC, float64(d.rounds)) }},
		{"runtime.heap_peak_mb", "MB", "lower", 0, func(d *runData) float64 { return d.heapPeakMB }},

		{"noise.ref_p50_ms", "ms", "lower", 0, func(d *runData) float64 { return median(d.noise) * ms }},
		{"noise.ref_spread", "ratio", "lower", 0, (*runData).noiseSpread},
		{"trace.overhead_share", "ratio", "lower", 0, func(d *runData) float64 {
			plain := d.plain.med("e2e.round")
			return ratio(d.traced.med("e2e.round")-plain, plain)
		}},
		{"trace.coverage_share", "ratio", "higher", 0, func(d *runData) float64 {
			byLayer, total := d.tr.roundShares()
			return 1 - ratio(byLayer["harness"], total)
		}},
	}...)
}()
