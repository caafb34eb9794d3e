GO ?= go

.PHONY: build test race race-all chaos crash bench bench-layers bench-parallel bench-hotpath bench-reuse bench-optimizer bench-serve bench-scale bench-live serve-smoke benchdiff profile vet verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run over the concurrent core: the engine's shared-context
# single-flight cache, the assistant's simulation fan-out, and the
# multi-tenant server.
race:
	$(GO) test -race ./internal/engine/... ./internal/assistant/... ./internal/server/...

# The pre-merge gate: formatting, vet, the race run over the concurrent
# core, and the full tier-1 suite. Bench-heavy tests honour -short, so this
# stays fast.
verify:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -short -race ./internal/engine/... ./internal/assistant/... ./internal/server/...
	$(GO) build ./...
	$(GO) test -short ./...

# Full race-detector run, including the root determinism tests.
race-all:
	$(GO) test -race ./...

# Fault-injection suite (DESIGN.md §12): deterministic chaos runs across
# worker counts and delta on/off, under the race detector.
chaos:
	$(GO) test -run Chaos -race ./internal/...

# Crash-injection suite (DESIGN.md §17): enumerate every kill point and
# torn-write prefix of store ingest, mutation commit, and spill writes;
# every surviving state must reopen as exactly generation G or G+1.
crash:
	$(GO) test -run Crash -race ./internal/...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Per-layer micro-benchmarks where the work happens, with allocs/op: the
# text layer (ParseNumeric on a number and on a rejected phrase, NormText on
# clean text and on text that needs rewriting), the similarity layer
# (tokenise, intern, the id kernel on true / near-miss / size-rejected
# pairs, the string entry point beside the map-based kernel it replaced),
# the engine's similarity join on pinned and on first-step-shaped
# multi-valued cells (400×400, with the candidate funnel as extra metrics),
# and its comparison selection over a join's output (every cell shared) and
# over one extraction (none shared), with cmp_operands_parsed as an extra
# metric.
bench-layers:
	$(GO) test -run='^$$' -bench='ParseNumeric|NormText' -benchmem ./internal/text
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/similarity
	$(GO) test -run='^$$' -bench='SimJoin|Compare' -benchmem ./internal/engine

# Serial versus parallel simulation strategy on the T9 join task.
bench-parallel:
	$(GO) test -bench='BenchmarkTable5SimulationT9' -benchmem -run='^$$' .
	$(GO) run ./cmd/iflex-bench -table parallel -scale 0.05 -bench-json BENCH_PARALLEL.json

# Serial hot-path counters and wall time on the T9 join task.
bench-hotpath:
	$(GO) run ./cmd/iflex-bench -table hotpath -scale 0.05 -bench-json /tmp/hotpath.json

# Incremental (delta) evaluation versus full recomputation on T9 sessions.
bench-reuse:
	$(GO) run ./cmd/iflex-bench -table reuse -scale 0.05 -bench-json BENCH_REUSE.json

# Cost-based optimizer versus plans as compiled, with a byte-identity
# sweep across worker counts and delta on/off (DESIGN.md §13).
bench-optimizer:
	$(GO) run ./cmd/iflex-bench -table optimizer -scale 0.05 -bench-json BENCH_OPTIMIZER.json

# Multi-tenant service load test: 8 concurrent tenants driving whole
# sessions over HTTP against an in-process server, with every streamed
# table checked byte-identical to the library path (DESIGN.md §14).
bench-serve:
	$(GO) run ./cmd/iflex-bench -table serve -scale 0.05 -bench-json BENCH_SERVE.json

# Corpus-scale storage bench: ingest a generated DBLife corpus into a
# sharded store, then measure index load, a budget-bounded content sweep,
# and postings-served similarity probes (DESIGN.md §15). The committed
# BENCH_SCALE.json snapshot is from -pages 100000; PAGES=3000 keeps the
# CI smoke run fast and additionally runs the byte-identity sweep.
PAGES ?= 100000
bench-scale:
	$(GO) run ./cmd/iflex-bench -table scale -pages $(PAGES) -bench-json BENCH_SCALE.json

# Live-corpus incremental bench: converge T9 over a Books store, commit a
# 1% page mutation, and compare the incremental re-evaluation against a
# from-scratch run of the same refined program — byte-identity checked
# across Workers 1/8 x optimizer on/off (DESIGN.md §16). The committed
# BENCH_LIVE.json snapshot is from the 10000-page default; LIVE_PAGES=1000
# keeps the CI smoke run fast.
LIVE_PAGES ?= 10000
bench-live:
	$(GO) run ./cmd/iflex-bench -table live -pages $(LIVE_PAGES) -bench-json BENCH_LIVE.json

# Boot iflexd, run a short serve burst against it, and check it drains
# cleanly on SIGTERM (exit 0). One shell so `wait` sees the daemon.
serve-smoke:
	$(GO) build -o /tmp/iflexd ./cmd/iflexd
	$(GO) build -o /tmp/iflex-bench ./cmd/iflex-bench
	/tmp/iflexd -addr 127.0.0.1:18080 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18080/healthz >/dev/null && break; sleep 0.1; \
	done; \
	/tmp/iflex-bench -table serve -scale 0.05 -tenants 4 -sessions-per-tenant 1 \
		-serve-addr http://127.0.0.1:18080 || exit 1; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: drain was not clean"; exit 1; }; \
	trap - EXIT; \
	echo "serve-smoke: clean drain"

# Re-run the parallel and reuse benches and fail on a >10% wall-time
# regression against the committed snapshots.
benchdiff:
	$(GO) run ./cmd/iflex-bench -table parallel -scale 0.05 -workers 4 -bench-json /tmp/bench-new.json
	$(GO) run ./cmd/iflex-bench -compare BENCH_PARALLEL.json /tmp/bench-new.json
	$(GO) run ./cmd/iflex-bench -table reuse -scale 0.05 -bench-json /tmp/bench-reuse-new.json
	$(GO) run ./cmd/iflex-bench -compare BENCH_REUSE.json /tmp/bench-reuse-new.json

# Capture CPU, heap, and execution-trace profiles from the parallel
# harness; inspect with `go tool pprof` / `go tool trace`.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/iflex-bench -table parallel -scale 0.05 \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-trace profiles/trace.out
