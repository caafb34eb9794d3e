GO ?= go

.PHONY: build test race race-all chaos crash bench bench-layers bench-counters bench-cover serve-smoke profile cover vet verify loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run over the concurrent core: the per-document record
# tables, the engine's shared-context single-flight cache, the assistant's
# simulation fan-out, the multi-tenant server, and the store's page loads,
# which share their read buffers across goroutines.
race:
	$(GO) test -race ./internal/feature/... ./internal/engine/... ./internal/assistant/... ./internal/server/... ./internal/store/...

# The pre-merge gate: formatting, the one-loop, one-fan-out,
# one-fault-state, one-cache-map, one-declaration, one-resolution and
# no-rendering rules, vet, the race run over the
# concurrent core, and the full tier-1 suite. Bench-heavy tests honour
# -short, so this stays fast. The one-loop rule:
# the per-tuple protocol (DESIGN.md §11 "The tuple loop") has one home, so
# outside tupleloop.go no non-test file of internal/engine reports
# unprocessed documents, picks, looks up or indexes a delta memo
# (priorFor, lookup, buildIndex: defined in delta.go, called only in
# tupleloop.go) or fans a loop out (evalAll fans out subtrees, not tuples,
# and stays). The one-fan-out rule: Context.ForEach (DESIGN.md §8) is
# the only place the engine and the assistant start goroutines, so outside
# internal/engine/parallel.go no non-test file of internal/engine or
# internal/assistant has a go statement, and Workers bounds every goroutine
# a session evaluates on.
# The one-fault-state rule: what a best-effort run reports (the bound
# cancellation, the documents cuts skipped, the quarantine records) is the
# Context's fault part (DESIGN.md §12), so outside faults.go no non-test
# file of internal/engine touches ctx.faults.
# The oracle rule: internal/oracle is the reference semantics tests check
# the engine against, so no non-test file imports it and it imports
# neither the engine nor the assistant.
# The one-cache-map rule: what the engine knows per cache key (the result,
# its memo and the trace of its evaluation, DESIGN.md §9) lives on the
# cache entry, so outside engine.go (the cache and the in-flight map) no
# non-test file of internal/engine declares a map[entryKey].
# The one-declaration rule: a built-in feature declares its span language
# and internal/feature/lang.go derives Verify, Refine and Hereditary from it
# (DESIGN.md §10, the hereditary paragraph), so no other non-test file of
# internal/feature declares one of the three Feature methods (the record
# tables' Verify and Refine take a constraint handle, not a span, first).
# The one-resolution rule: a domain constraint is resolved once, when the
# compiler builds its node (DESIGN.md §10), so outside compile.go no non-test
# file of internal/engine looks a feature up or interns a (feature, value)
# pair — a call of Intern with two arguments; the similarity vocabulary's
# Intern takes one. The no-rendering rule: evaluation compares values, never
# their text renderings, so no non-test file of internal/engine calls one of
# the text.Format functions. The one-switch rule: a plan node states its
# operator once, in the key and kind its constructor interns it under
# (DESIGN.md, "Identity by construction"), so outside explain.go, whose
# opName labels PlanString and the sweep's plan hashes read, no non-test file
# of internal/engine has a case *…Node clause. The one-adoption rule: handing
# out a predecessor's table is decided once, by content, before the operator
# runs (DESIGN.md §11 "Table adoption"), so outside adoptUnrun (delta.go) no
# non-test file of internal/engine calls StructuralEq (the memo lookup's
# CellsStructuralEq compares a tuple's read cells and stays).
verify:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@imports="$$(find . -name '*.go' -not -path './.bench_build/*' | xargs grep -lE '"iflex/internal/oracle"' | grep -v '_test\.go$$'; \
		grep -lE '"iflex/internal/(engine|assistant)"' internal/oracle/*.go)"; if [ -n "$$imports" ]; then \
		echo "internal/oracle imported by production code, or importing the engine:"; echo "$$imports"; exit 1; fi
	@loops="$$(grep -nE '\.(noteUnprocessed|lookup|priorFor|buildIndex|parallelChunksSized)\(' internal/engine/*.go | \
		grep -vE '^internal/engine/(tupleloop\.go|[a-z0-9_]*_test\.go):')"; if [ -n "$$loops" ]; then \
		echo "per-tuple protocol outside internal/engine/tupleloop.go:"; echo "$$loops"; exit 1; fi
	@spawns="$$(grep -nE '^\s*go ' internal/engine/*.go internal/assistant/*.go | \
		grep -vE '^internal/(engine/parallel\.go|(engine|assistant)/[a-z0-9_]*_test\.go):')"; if [ -n "$$spawns" ]; then \
		echo "go statement outside Context.ForEach (internal/engine/parallel.go):"; echo "$$spawns"; exit 1; fi
	@faults="$$(grep -nE '\.faults\.' internal/engine/*.go | \
		grep -vE '^internal/engine/(faults\.go|[a-z0-9_]*_test\.go):')"; if [ -n "$$faults" ]; then \
		echo "fault state touched outside internal/engine/faults.go:"; echo "$$faults"; exit 1; fi
	@keymaps="$$(grep -nE 'map\[entryKey\]' internal/engine/*.go | \
		grep -vE '^internal/engine/(engine\.go|[a-z0-9_]*_test\.go):')"; if [ -n "$$keymaps" ]; then \
		echo "map keyed by entryKey outside internal/engine/engine.go:"; echo "$$keymaps"; exit 1; fi
	@methods="$$(grep -nE '^func \([^)]*\) ((Verify|Refine)\([a-z_]+ text\.Span|Hereditary\()' internal/feature/*.go | \
		grep -vE '^internal/feature/(lang\.go|[a-z0-9_]*_test\.go):')"; if [ -n "$$methods" ]; then \
		echo "Verify, Refine or Hereditary written outside the adapter (internal/feature/lang.go):"; echo "$$methods"; exit 1; fi
	@resolves="$$(grep -nE '\.Intern\([^)]*,|Features\.Lookup\(' internal/engine/*.go | \
		grep -vE '^internal/engine/(compile\.go|[a-z0-9_]*_test\.go):')"; if [ -n "$$resolves" ]; then \
		echo "constraint resolved outside the compiler (internal/engine/compile.go):"; echo "$$resolves"; exit 1; fi
	@renders="$$(grep -nE 'text\.Format' internal/engine/*.go | grep -vE '^internal/engine/[a-z0-9_]*_test\.go:')"; \
		if [ -n "$$renders" ]; then echo "text rendered on the evaluation path:"; echo "$$renders"; exit 1; fi
	@switches="$$(grep -nE '^\s*case .*\*[A-Za-z]+Node\b' internal/engine/*.go | \
		grep -vE '^internal/engine/(explain\.go|[a-z0-9_]*_test\.go):')"; if [ -n "$$switches" ]; then \
		echo "per-operator switch outside opName (internal/engine/explain.go):"; echo "$$switches"; exit 1; fi
	@adopts="$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /[^A-Za-z]StructuralEq\(/ && fn !~ /\) adoptUnrun\(/ { print FILENAME ":" FNR ": " $$0 }' \
		$$(ls internal/engine/*.go | grep -v '_test\.go$$'))"; if [ -n "$$adopts" ]; then \
		echo "StructuralEq outside adoptUnrun (internal/engine/delta.go):"; echo "$$adopts"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -short -race ./internal/feature/... ./internal/engine/... ./internal/assistant/... ./internal/server/... ./internal/store/...
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
# torn-write prefix of store ingest and mutation commit; every surviving
# state must reopen as exactly generation G or G+1.
crash:
	$(GO) test -run Crash -race ./internal/...

# The ablations EXPERIMENTS.md cites (`go test -bench=Ablation`), the
# engine on Figure 2 and the precise baseline of Section 6.3. Performance
# claims come from `bash benchmark/run.sh` (benchmark/README.md), not here.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Per-layer micro-benchmarks where the work happens, with allocs/op: the
# Alog parser on the largest task program and the body ordering of a
# converged T8 rule, the markup parser on one page,
# the compact-table to a-table expansion (values per assignment), the
# text layer (sub-span enumeration of one contain assignment,
# ParseNumeric on a number and on a rejected phrase, NormText on
# clean text and on text that needs rewriting), the similarity layer
# (tokenise, intern, the id kernel on true / near-miss / size-rejected
# pairs, the string entry point beside the map-based kernel it replaced),
# the feature layer (Verify and Refine of a mark, a context, the numeric
# and a pattern feature: called directly, through a document's record table
# on a miss and on a hit),
# the engine's similarity join on pinned and on first-step-shaped
# multi-valued cells (400×400, with the candidate funnel as extra metrics),
# its comparison selection over a join's output (every cell shared) and
# over one extraction (none shared), each over warm and over dropped record
# tables, with cmp_operands_parsed as an extra metric, the build of one
# Simulation trial plan against a converged T8 program whose base plan is
# interned, compiled (clone, add a constraint, compile), edited
# (WithConstraint) and edited again (repeat: one edit rebuilt, every node
# found), the annotation ψ over
# 2,000 T8-shaped rows (one and four rows per key), a selection that
# keeps every row as it came or narrows every row, a two-stage constraint
# run over 2,000 T8-shaped rows with delta on (cold: the memo built with no
# prior; replay: every row replayed from the previous memo), the store's read
# path over DBLife pages (one page load: read, checksum, decode and
# payload build; one touch under a resident budget that trims a page; one
# record built at ingest; one posting-run decode), the service's
# /result NDJSON stream of a finished T9 result, and the converged T7 and
# T8 programs and their precise baselines over 500 records with a fresh
# Env (so fresh record tables) per run.
bench-layers:
	$(GO) test -run='^$$' -bench='ParseProgram|OrderBody' -benchmem ./internal/alog
	$(GO) test -run='^$$' -bench=MarkupParse -benchmem ./internal/markup
	$(GO) test -run='^$$' -bench=CompactVsATable -benchmem ./internal/oracle
	$(GO) test -run='^$$' -bench='SubSpanEnumeration|ParseNumeric|NormText' -benchmem ./internal/text
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/similarity
	$(GO) test -run='^$$' -bench=FeatureMemo -benchmem ./internal/feature
	$(GO) test -run='^$$' -bench='SimJoin|Cross|Compare|TrialPlan|Annotate|SelectKeep|TupleLoopMemo' -benchmem ./internal/engine
	$(GO) test -run='^$$' -bench='PageLoad|Trim|BuildRecord|DecodePostings' -benchmem ./internal/store
	$(GO) test -run='^$$' -bench=ResultEncode -benchmem ./internal/server
	$(GO) test -run='^$$' -bench='T[78]Cold$$' -benchmem .

# The two line counts ROADMAP.md gates on, with exactly its command:
# non-test Go outside benchmark/, in total and in internal/engine. CI's
# verify job runs it last, so every PR's log carries them, and it fails
# when either count exceeds its budget in .github/loc-budget ("total N" and
# "internal/engine N"). A PR that shrinks the tree lowers the budget to its
# own counts; one that needs more room has to say so by raising it.
# The size of DESIGN.md in bytes is printed beside them against its line
# there ("DESIGN.md N"); TestDesignWithinBudget, not this target, gates
# on it.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs wc -l | \
		awk -v design=$$(wc -c < DESIGN.md) 'NR == FNR { budget[$$1] = $$2; next } \
			$$2 ~ /^\.\/internal\/engine\// { e += $$1 } $$2 == "total" { t += $$1 } \
			END { print "non-test Go lines outside benchmark/: " t " (budget " budget["total"] ")"; \
				print "of which internal/engine: " e " (budget " budget["internal/engine"] ")"; \
				print "DESIGN.md bytes: " design " (budget " budget["DESIGN.md"] ")"; \
				exit !(t <= budget["total"] && e <= budget["internal/engine"]) }' .github/loc-budget -

# Regenerate the deterministic counters CI holds the two library workloads
# and store_cycle to (feature_calls_per_round equal, tuples_built_per_round
# not higher), with the flags the CI job runs them with. Three runs of a
# few seconds each.
bench-counters:
	bash .github/benchmark-counters.sh write > .github/benchmark-counters.json.tmp
	mv .github/benchmark-counters.json.tmp .github/benchmark-counters.json

# Build the real iflexd binary, start it on a free port, drive one T9
# session over HTTP (table byte-identical to the library path), step a
# session over a mounted store with one corrupt record (a degraded step
# naming that page), SIGTERM it and require a clean drain with exit
# status 0.
serve-smoke:
	$(GO) test -run TestDaemon -count=1 ./cmd/iflexd

# Statement coverage of the tier-1 suite over every package
# (-coverpkg=./..., so a function counts as reached from any package's
# tests), written to profiles/cover.out (gitignored), then the non-test
# functions no test reaches at all: where a deletion pass starts looking.
# Inspect a file with `go tool cover -html=profiles/cover.out`.
cover:
	mkdir -p profiles
	$(GO) test -coverpkg=./... -coverprofile=profiles/cover.out ./...
	@$(GO) tool cover -func=profiles/cover.out | awk '$$NF == "0.0%"'

# Statement coverage of what the benchmark's workloads run, not of what
# the tests reach: the harness is built with -cover -coverpkg=iflex/...
# under .bench_build (as benchmark/run.sh builds it, nothing fetched),
# each workload runs a few seconds at seed 1 with GOCOVERDIR set, and the
# merged counts of internal/ go to profiles/bench-cover.out (gitignored;
# the harness's own package, iflex/benchmark, is left out). Then the
# non-test internal/ functions no workload runs at all: reuse and fallback
# paths that only tests reach, where a deletion pass starts looking. Read
# a listed file with `go tool cover -html=profiles/bench-cover.out`: a
# 0-count block inside a covered `if` is a branch no workload took, not a
# function never called, so a path guarded inside a function that runs
# shows only there, never in the list.
BENCH_COVER_ENV = GOCACHE=$(CURDIR)/.bench_build/gocache GOTMPDIR=$(CURDIR)/.bench_build/tmp \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME=$(CURDIR)/.bench_build/config
bench-cover:
	rm -rf .bench_build/cover
	mkdir -p profiles .bench_build/cover .bench_build/tmp
	cd benchmark && $(BENCH_COVER_ENV) $(GO) build -cover -covermode=atomic -coverpkg=iflex/... -o ../.bench_build/iflex-benchmark-cover .
	for w in join_converge extract_converge serve_sessions store_cycle; do \
		GOCOVERDIR=.bench_build/cover .bench_build/iflex-benchmark-cover --workload $$w --seed 1 --seconds 5 --trace 0 >/dev/null || exit 1; \
	done
	$(GO) tool covdata textfmt -i=.bench_build/cover -pkg='iflex/internal/...' -o profiles/bench-cover.out
	@$(GO) tool cover -func=profiles/bench-cover.out | awk '$$1 ~ /\/internal\// && $$NF == "0.0%"'

# Capture CPU, heap, and execution-trace profiles from the Table 5
# sessions (both strategies, all nine tasks); inspect with `go tool pprof`
# / `go tool trace`.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/iflex-bench -table 5 -scale 0.05 \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-trace profiles/trace.out
