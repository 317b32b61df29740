# swrec — standard development targets. The runtime is stdlib-only Go;
# the one external module is golang.org/x/tools (vendored), used at
# lint time only to build cmd/swrecvet on the go/analysis framework.

GO ?= go

.PHONY: all build check fmt vet lint lint-note test bench-harness race cover bench bench-diff bench-diff-parent bench-diff-short profile fuzz fuzz-smoke chaos chaos-short recovery-smoke load load-short load-baseline experiments experiments-paper experiments-paper-record examples clean

all: build check

# check is the CI gate: formatting, vet, the swrecvet invariant
# analyzers (lint runs before race so an invariant regression fails
# fast, without waiting out the race-detector suite), the full test
# suite under the race detector (the serving engine is exercised
# concurrently), the benchmark module's vet/build/test against this
# checkout's internal/ packages, a short fuzz smoke of the RDF parsers,
# the two binary decoders and the API's JSON encoders, the short-mode
# chaos suite, the checkpoint
# recovery smoke, a short benchmark-regression probe of the serving hot
# path, and the short production-load scenario with its adversarial
# trust attacks (see README "Load & attack harness").
check: fmt vet lint race bench-harness fuzz-smoke chaos-short recovery-smoke bench-diff-short load-short

# bin/swrecvet is rebuilt only when an analyzer source changes, so a
# repeated `make lint` goes straight to the (vet-cached) analysis.
SWRECVET_SRC := $(shell find cmd/swrecvet internal/analysis -name '*.go' -not -path '*/testdata/*' -not -name '*_test.go')
bin/swrecvet: $(SWRECVET_SRC)
	$(GO) build -o bin/swrecvet ./cmd/swrecvet

# lint builds the swrecvet multichecker (only when its sources changed)
# and drives it through go vet, so the project analyzers (boundedmake,
# ctxflow, detrand, durableerr, expvarname, goleak, hotalloc,
# snapshotfreeze, snapshotpin, urikey) run with full type information.
# The same run audits the suppressions: the nolint pass reports every
# justified one that names no registered analyzer or covers none of its
# diagnostics, so a stale suppression fails lint with its file:line.
# Narrow the sweep with PKG: `make lint PKG=./internal/engine/...`.
# See README "Static analysis" for the invariant each analyzer encodes
# and DESIGN.md §7 for the PR that introduced it.
PKG ?= ./...
lint: bin/swrecvet
	$(GO) vet -vettool=$(abspath bin/swrecvet) $(PKG)

# There is deliberately no auto-fix: every exception to an invariant
# must be written down where it lives, with a reason —
#   //nolint:<analyzer> -- reason            (one line)
#   //swrecvet:disable <analyzer> -- reason  (whole file)
# A suppression without the "-- reason" clause is inert and the
# diagnostic keeps firing. lint-note prints this workflow.
lint-note:
	@echo 'suppress a swrecvet finding where it occurs, with a justification:'
	@echo '  //nolint:<analyzer> -- reason             # covers its line and the next'
	@echo '  //swrecvet:disable <analyzer> -- reason   # covers the whole file'
	@echo 'unjustified suppressions are inert; the diagnostic keeps firing.'
	@echo 'a justified suppression that covers no diagnostic is stale:'
	@echo '  the nolint pass fails make lint on it; delete it.'
	@echo 'mark zero-allocation kernels with //swrec:hotpath in the doc comment:'
	@echo '  hotalloc then rejects every allocating construct in the function'
	@echo '  and its same-package callees.'
	@echo 'narrow a lint run with PKG:   make lint PKG=./internal/engine/...'

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# bench-harness vets, builds and tests the repo benchmark (bench/, a
# module of its own that `./...` above never reaches) against this
# checkout's internal/ packages, so a rename there cannot break the
# benchmark unnoticed. It does not run the benchmark; BENCHMARK.json's
# command does.
bench-harness:
	$(GO) -C bench vet ./...
	$(GO) -C bench build ./...
	$(GO) -C bench test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# bench runs the serving and write-path benchmarks and archives the
# results as JSON for cross-commit comparison. BenchmarkPublish runs on
# its own, after the rest, at a fixed iteration count: each iteration
# does 64 cold reads outside the timer (0.6 s of them at 9,100 agents),
# so letting the framework pick b.N from the timed 2 ms would take the
# package past go test's ten-minute limit — and starve whichever
# package's benchmarks run beside it.
BENCH_SUITE = { $(GO) test -run=^$$ -bench=. -skip='BenchmarkPublish$$' -benchmem \
		./internal/engine/ ./internal/api/ ./internal/wal/ ./internal/store/ ./internal/ingest/ ./internal/checkpoint/ ./internal/trust/ ./internal/index/ ./internal/cf/ ./internal/core/ && \
	$(GO) test -run=^$$ -bench='BenchmarkPublish$$' -benchmem -benchtime=50x ./internal/ingest/ ; }
bench:
	$(BENCH_SUITE) | $(GO) run ./cmd/benchjson -out BENCH_engine.json

# bench-diff reruns the benchmark suite and fails when any benchmark
# regresses more than 20% in ns/op or allocs/op against the committed
# BENCH_engine.json baseline.
bench-diff:
	$(BENCH_SUITE) | $(GO) run ./cmd/benchjson -diff BENCH_engine.json

# bench-diff-parent times ns/op against the parent in the same session:
# REF (default HEAD~1) is checked out in a temporary git worktree, and
# BENCH_SUITE runs there and here in alternation, three times each; a
# benchmark fails when its median ns/op here exceeds the parent's median
# by more than 20% (the bench-diff threshold). allocs/op still gate
# against BENCH_engine.json. Use it where bench-diff's baseline, recorded
# in another session, cannot tell a change from the box's drift:
#   make bench-diff-parent REF=origin/main
REF ?= HEAD~1
bench-diff-parent:
	@mkdir -p bin
	@set -e; wt=$$(mktemp -d); trap 'git worktree remove --force '"$$wt" EXIT; \
	git worktree add --detach "$$wt" $(REF) >/dev/null; \
	: > bin/bench-parent.txt; : > bin/bench-here.txt; \
	for i in 1 2 3; do \
		echo "bench-diff-parent: round $$i of 3, $(REF)"; \
		(cd "$$wt" && $(BENCH_SUITE)) >> bin/bench-parent.txt; \
		echo "bench-diff-parent: round $$i of 3, this tree"; \
		$(BENCH_SUITE) >> bin/bench-here.txt; \
	done; \
	$(GO) run ./cmd/benchjson -in bin/bench-here.txt -parent bin/bench-parent.txt -diff BENCH_engine.json

# bench-diff-short is the quick form run as part of check: the cold
# request at paper scale, the publish benchmark, the warm GET — stored
# hit and encoded miss — Advogato at paper scale and the checkpoint load
# at the benchmark's community size, few iterations, and
# a deliberately loose 100% threshold — at -benchtime=100x single-run
# noise reaches ~1.8x, while
# losing the bounded neighbourhood shows as ~15x on the cold request, a
# publish that copies the community again (O(N), not O(batch)) as ~10x at
# 2,000 agents and ~25x at 9,100, a warm GET that goes back to routing and
# re-encoding instead of replaying the snapshot's stored body as ~50x (and
# as allocations where the baseline has none, which fail at any ratio),
# and a miss that goes back to reflecting over its answer as 3x the
# allocations of the mix and of each of the five shapes, and an Advogato
# that goes back to building a flow network per call as ~15x and 40,000
# allocations where the baseline has 2, and a checkpoint load that goes
# back to replaying taxonomy.Add per topic and a setter per statement as
# ~1.5x the time and ~3x the allocations, so the gate catches those classes
# of regression without flaking on scheduler jitter. The kill -9 restart
# (BenchmarkRecover) is gated on its bytes as well, pinned to two procs
# so they are reproducible: a recovery that goes back to deriving Eq. 3
# tables per topic or to decoding every warm neighborhood up front
# allocates 1.23x or 1.41x the bytes (gate: 1.15x) but stays well under
# twice the time.
bench-diff-short:
	{ $(GO) test -run=^$$ -bench='BenchmarkServeEngineCold/agents=9100$$' -benchmem -benchtime=100x ./internal/engine/ && \
	  $(GO) test -run=^$$ -bench='BenchmarkServeHTTPWarm/hit$$' -benchmem -benchtime=200000x ./internal/api/ && \
	  $(GO) test -run=^$$ -bench='BenchmarkServeHTTPWarm/miss$$' -benchmem -benchtime=20000x ./internal/api/ && \
	  $(GO) test -run=^$$ -bench='BenchmarkPublish$$' -benchmem -benchtime=20x ./internal/ingest/ && \
	  $(GO) test -run=^$$ -bench='BenchmarkAdvogato/agents=9100$$' -benchmem -benchtime=200x ./internal/trust/ && \
	  $(GO) test -run=^$$ -bench='BenchmarkCheckpointLoad/agents=2000$$' -benchmem -benchtime=20x ./internal/checkpoint/ ; } \
		| $(GO) run ./cmd/benchjson -diff BENCH_engine.json -threshold 1.0
	$(GO) test -run=^$$ -bench='BenchmarkRecover/agents=2000$$' -benchmem -benchtime=20x -cpu=2 ./internal/checkpoint/ \
		| $(GO) run ./cmd/benchjson -diff BENCH_engine.json -threshold 1.0 -bytes 0.15

# load-short runs the deterministic short load scenario (300 agents,
# 4000 mixed events, one Sybil ring) against an in-process server:
# swrecload itself fails on any SLO or attack-confinement violation,
# then benchjson gates the emitted metrics against the committed
# BENCH_load.json baseline. Latency keys get a loose 3.0 (4x) threshold
# — CI machines vary — while the deterministic metrics (error rates,
# energy shares, rank perturbations) gate on absolute drift.
load-short:
	@mkdir -p bin
	$(GO) build -o bin/swrecload ./cmd/swrecload
	./bin/swrecload -preset short -out bin/BENCH_load_short.json
	$(GO) run ./cmd/benchjson -in bin/BENCH_load_short.json -diff BENCH_load.json -threshold 3.0

# load is the full-scale run: 10⁵ agents, 2×10⁴ products on the book
# taxonomy, 60k open-loop events at 2000/s with Sybil, trust-spam, and
# shilling attacks injected (several minutes; generation dominates).
# Not part of check — run it before serving-path or trust-metric PRs.
load:
	@mkdir -p bin
	$(GO) build -o bin/swrecload ./cmd/swrecload
	./bin/swrecload -preset full -out bin/BENCH_load_full.json -slo=report -v

# load-baseline re-records the committed short-scenario baseline.
# Regenerate it deliberately (a latency-relevant change on a quiet
# machine), never to silence a failing gate.
load-baseline:
	@mkdir -p bin
	$(GO) build -o bin/swrecload ./cmd/swrecload
	./bin/swrecload -preset short -out BENCH_load.json

# profile captures CPU and allocation profiles of the cold-path serving
# benchmark into bin/ and prints the top-10 hotspots of each — the
# entry point for performance work (see README "Performance").
profile:
	@mkdir -p bin
	$(GO) test -run=^$$ -bench='BenchmarkServeEngineCold/agents=9100$$' -benchtime=2000x \
		-cpuprofile bin/cpu.prof -memprofile bin/mem.prof -o bin/engine.test ./internal/engine/
	$(GO) tool pprof -top -nodecount=10 bin/engine.test bin/cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space bin/engine.test bin/mem.prof

# chaos drives the crawl → ingest → serve pipeline under deterministic
# seed-driven transport and disk faults (internal/faultinject) and
# asserts no deadlock, no corrupted snapshot, and byte-identical WAL
# replay. Override the seed with CHAOS_SEED=N.
CHAOS_SEED ?= 1117
chaos:
	$(GO) test -run TestChaos -v ./internal/faultinject/ -chaos.seed=$(CHAOS_SEED)

# chaos-short is the scaled-down variant run as part of check.
chaos-short:
	$(GO) test -short -run TestChaos ./internal/faultinject/ -chaos.seed=$(CHAOS_SEED)

# recovery-smoke is the checkpoint restart gate run as part of check:
# build a corpus through the real ingest pipeline, write compiled
# checkpoints, corrupt the newest one, and require the recovery ladder
# to land on the previous retained checkpoint (rung 2) with the WAL
# tail replayed — a fall-through to corpus recompute (rung 3) fails.
recovery-smoke:
	$(GO) test -run 'TestRecoverySmoke|TestRestoredMatchesFromScratch' ./internal/checkpoint/

# The fuzz targets, one package:Target entry each: the RDF parsers
# (internal/rdf/fuzz_test.go), the binary decoders a restart trusts —
# the checkpoint file (and the engine restored from whatever it
# accepts), the frame scan under both logs, the WAL's record payload and
# the crawler cache's rebuild — the API's string and float encoders
# against encoding/json (internal/api/encode_test.go), its
# query-parameter scanner against url.ParseQuery (internal/api/api_test.go)
# and its router against an http.ServeMux holding the old patterns
# (internal/api/cache_test.go), and the weblog miner's link and FOAF
# auto-discovery parsers against their strings.ToLower forms
# (internal/weblog/fuzz_test.go).
# A third field, :binary, marks the binary decoders: their inputs are
# kilobytes, and go test would by default spend up to a minute shrinking
# each one that reaches new code — the whole budget — so FUZZ_BINARY
# holds their minimizer to a second.
FUZZ_TARGETS = \
	rdf:FuzzParseNTriples rdf:FuzzParseTurtle rdf:FuzzParseRDFXML rdf:FuzzParseDocument \
	checkpoint:FuzzDecode:binary frame:FuzzScan:binary wal:FuzzScanSegment:binary store:FuzzStoreScan:binary \
	api:FuzzAppendString api:FuzzAppendFloat api:FuzzParam api:FuzzRoute api:FuzzBodyKey api:FuzzWriteBody \
	foaf:FuzzUnmarshalHomepage weblog:FuzzExtractLinks weblog:FuzzFOAFLink
FUZZ_BINARY = -fuzzminimizetime 1s

# $(call fuzz-each,<go test flags>,<fuzztime>) expands to one recipe
# line per FUZZ_TARGETS entry, in order; the first failure stops make.
define fuzz-target
$(GO) test $(2)-fuzz $(word 2,$(1)) -fuzztime $(3) $(if $(word 3,$(1)),$(FUZZ_BINARY) )./internal/$(word 1,$(1))/

endef
fuzz-each = $(foreach t,$(FUZZ_TARGETS),$(call fuzz-target,$(subst :, ,$(t)),$(1),$(2)))

# fuzz gives every target 30 seconds.
fuzz:
	$(call fuzz-each,,30s)

# fuzz-smoke is the 5-second-per-target variant run as part of check.
fuzz-smoke:
	$(call fuzz-each,-run=^$$ ,5s)

# The small suite's report is a record: TestSmallSuiteMatchesRecord
# compares a fresh run with it, wall-clock figures masked. experiments
# rewrites it.
experiments:
	$(GO) run ./cmd/experiments | tee experiments_small_output.txt

# The §4.1 corpus scale — 9,100 agents, 9,953 books, >20k topics — is a
# record too: experiments-paper compares a fresh run (several minutes)
# with experiments_paper_output.txt under the same masking, through a
# test the paperrecord build tag keeps out of `go test ./...`;
# experiments-paper-record rewrites it.
experiments-paper:
	$(GO) test -tags paperrecord -run '^TestPaperSuiteMatchesRecord$$' -timeout 60m -count=1 ./internal/experiments/

experiments-paper-record:
	$(GO) run ./cmd/experiments -scale paper | tee experiments_paper_output.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bookclub
	$(GO) run ./examples/trustnet
	$(GO) run ./examples/decentralized
	$(GO) run ./examples/stereotypes

clean:
	$(GO) clean ./...
