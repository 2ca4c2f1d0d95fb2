GO ?= go

# Tier-1 gate: every change must pass this.
.PHONY: check
check: fmt vet build test smoke

# Formatting gate: every Go file in the tree, bench/ included, must be
# gofmt-clean.
.PHONY: fmt
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmt: gofmt -l lists unformatted files:"; echo "$$out"; exit 1; \
	fi

# The bench module compiles against the sweep/prover API, so it is vetted
# with the main module.
.PHONY: vet
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Static analysis beyond vet. Skips gracefully when the staticcheck binary
# is not installed (CI installs it; local runs may not have it).
.PHONY: staticcheck
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: binary not found, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test -race ./...

# Full race-detector pass: every package, no caching. The scheduler's
# termination protocol is decided against fresh state (scheduler.go next),
# so the cross-package parity and clean-campaign suites run here too —
# nothing is scoped out.
.PHONY: race
race:
	$(GO) test -race -count=1 ./...

# Schedule-perturbation soak: the interleaving-sweep matrix at nightly
# scale (SIMGEN_PERTURB_COMBOS chaos schedules instead of the CI default
# 200), plus a perturbed differential campaign through the CLI.
PERTURB_COMBOS ?= 2000
.PHONY: fuzz-perturb
fuzz-perturb:
	SIMGEN_PERTURB_COMBOS=$(PERTURB_COMBOS) $(GO) test -race -count=1 \
		-run 'TestInterleavingSweep' ./internal/fuzz ./internal/sweep
	$(GO) run ./cmd/fuzz -n 100 -seed 1 -perturb -perturb-schedules 4 -oracle differential

# Coverage over the library packages, with a soft floor on internal/obs:
# the observability layer is pure bookkeeping, so uncovered lines there are
# almost always an event kind nothing asserts on.
OBS_COVER_FLOOR ?= 70
.PHONY: cover
cover:
	$(GO) test -coverprofile=/tmp/cover.out ./internal/...
	@$(GO) tool cover -func=/tmp/cover.out | tail -1
	@pct=$$($(GO) test -cover ./internal/obs 2>/dev/null \
		| sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$pct" ]; then \
		echo "cover: could not read internal/obs coverage"; exit 1; \
	fi; \
	ok=$$(awk -v p="$$pct" -v f="$(OBS_COVER_FLOOR)" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
	if [ "$$ok" != 1 ]; then \
		echo "cover: internal/obs coverage $$pct% is below the $(OBS_COVER_FLOOR)% floor"; \
		exit 1; \
	fi; \
	echo "cover: internal/obs coverage $$pct% (floor $(OBS_COVER_FLOOR)%)"

# Deadline smoke test: every engine and both CLIs, each cut by a short
# wall-clock budget, must come back inside `timeout 5` with a partial
# result and the undecided exit code (3): the SAT-hard "voter" benchmark
# on the sat engine at workers=1 and 4 and on the word engine, b14_C on
# the BDD engine, and cmd/simgen's final sweep of voter. Each deadline must
# fall well inside its run: uncut, voter takes about 1.9 s of wall on the
# sat engine at workers=1, 5 s at workers=4 and 2.9 s on the word engine
# on a 2-vCPU Xeon. The sweep legs need more than 12 inputs (voter has
# 31): a narrower network is enumerated in milliseconds.
#
# Usage legs: a negative escalation count, BDD node limit, conflict budget
# or iteration count must exit 2 (usage error) without a panic, from
# cmd/sweep and cmd/simgen alike, instead of running a ladder that resolves
# nothing or reading the value as another; so must a cmd/simgen -batch
# below 1, which would generate nothing, an unknown cmd/sweep benchmark,
# cmd/sweep -base without -cache-dir, -benchmark together with a circuit
# file in either CLI, which would leave the file unread, and an unknown
# experiment, a negative iteration count or a -benchmarks list that leaves
# table2big no scaled circuit in cmd/experiments, which must fail before
# any table runs; so must cmd/sweep's -reduce, -cache-dir or -base with two
# circuits, which a CEC would leave unused, and a -reduce file that cannot
# be created, which must fail before the run. A Go panic also exits 2, so
# each leg fails on a panic in its stderr too.
.PHONY: smoke
smoke:
	@$(GO) build -o .smoke-sweep ./cmd/sweep
	@$(GO) build -o .smoke-simgen ./cmd/simgen
	@$(GO) build -o .smoke-experiments ./cmd/experiments
	@for run in \
		"sweep -benchmark voter -method none -timeout 50ms -workers 1" \
		"sweep -benchmark voter -method none -timeout 100ms -workers 4" \
		"sweep -benchmark voter -method none -timeout 50ms -engine word" \
		"sweep -benchmark b14_C -method none -timeout 100ms -engine bdd" \
		"simgen -benchmark voter -iterations 0 -engine sat -timeout 200ms"; do \
		timeout 5 ./.smoke-$$run >/dev/null; \
		code=$$?; \
		if [ $$code -ne 3 ]; then \
			echo "smoke: $$run: expected exit 3 (undecided on timeout), got $$code"; \
			rm -f .smoke-sweep .smoke-simgen .smoke-experiments; \
			exit 1; \
		fi; \
		echo "smoke: $$run: ok (exit 3, partial result)"; \
	done
	@for run in \
		"sweep -benchmark alu4 -max-escalations -1" \
		"sweep -benchmark alu4 -bdd-nodes -1" \
		"sweep -benchmark alu4 -conflict-budget -1" \
		"sweep -benchmark alu4 -iterations -1" \
		"simgen -benchmark alu4 -iterations -1" \
		"simgen -benchmark alu4 -batch 0" \
		"simgen -benchmark alu4 -batch -1" \
		"sweep -benchmark nope" \
		"sweep -benchmark alu4 -base x.blif" \
		"sweep -benchmark alu4 x.blif" \
		"simgen -benchmark alu4 x.blif" \
		"experiments nope" \
		"experiments -iterations -1 table1" \
		"experiments -benchmarks pdc table2big" \
		"sweep -reduce .smoke-reduced.blif testdata/datapath/cmp16_a.blif testdata/datapath/cmp16_b.blif" \
		"sweep -cache-dir .smoke-cache -base testdata/datapath/cmp16_a.blif testdata/datapath/cmp16_a.blif testdata/datapath/cmp16_b.blif" \
		"sweep -benchmark voter -reduce .smoke-missing/x.blif"; do \
		timeout 5 ./.smoke-$$run >/dev/null 2>.smoke-stderr; \
		code=$$?; \
		if [ $$code -ne 2 ] || grep -q 'panic:' .smoke-stderr; then \
			echo "smoke: $$run: expected exit 2 (usage error) without a panic, got $$code"; \
			cat .smoke-stderr; \
			rm -rf .smoke-sweep .smoke-simgen .smoke-experiments .smoke-stderr .smoke-reduced.blif .smoke-cache; \
			exit 1; \
		fi; \
		echo "smoke: $$run: ok (exit 2, usage error)"; \
	done
	@rm -rf .smoke-sweep .smoke-simgen .smoke-experiments .smoke-stderr .smoke-reduced.blif .smoke-cache

# Fuzzing smoke: a short differential+metamorphic campaign (deterministic
# seed, must be clean), the broken-sweeper self-test (must be caught), and
# a few seconds of each Go-native parser/ISOP/mapper fuzz target.
FUZZTIME ?= 10s
.PHONY: fuzz
fuzz:
	$(GO) run ./cmd/fuzz -n 200 -seed 1
	$(GO) run ./cmd/fuzz -n 200 -seed 1 -inject-unsound -oracle differential
	$(GO) test ./internal/blif -fuzz=FuzzBlifParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/blif -fuzz=FuzzParseBench -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/aiger -fuzz=FuzzAigerParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tt -fuzz=FuzzISOP -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mapper -fuzz=FuzzMap -fuzztime=$(FUZZTIME)

# The bench module's own tests (bench/ is a separate Go module, so
# `go test ./...` at the root does not reach it): the smoke test over every
# workload, the planted-fault test and TestCLIParity, which checks the
# benchmark's copy of the pipeline against the cmd/sweep binary.
.PHONY: bench-test
bench-test:
	cd bench && $(GO) test -count=1 ./...

# Full-suite benchmarks: one per paper table/figure plus substrate
# components (repo root bench_test.go).
.PHONY: bench-full
bench-full:
	$(GO) test -bench=. -benchmem

# Simulation-core micro-benchmarks: the arena kernel, bucketed
# refinement, vector packing, the sweeping counterexample pool,
# end-to-end service throughput, SimGen and reverse-simulation vector
# generation, the exhaustive-simulation prover rung, NPN canonization,
# the proof cache's structural diff and the CDCL solver's raw
# propagation rate.
# BENCHCOUNT repetitions give the gate stable medians.
BENCHCOUNT ?= 5
BENCHES ?= BenchmarkSimulate|BenchmarkRefine|BenchmarkPackVectors|BenchmarkSweepCexPool|BenchmarkObligationScheduler|BenchmarkTracerOverhead|BenchmarkSweepdThroughput|BenchmarkWarmSweep|BenchmarkAblationSimGen|BenchmarkAblationRevS|BenchmarkSimEngine|BenchmarkNPNCanon|BenchmarkDiff|BenchmarkSolve
BENCHDIRS ?= ./internal/sim ./internal/sweep ./internal/sweepd ./internal/tt ./internal/pcache ./internal/sat .
.PHONY: bench
bench:
	$(GO) test -run 'xxx' -bench '$(BENCHES)' -benchmem -count $(BENCHCOUNT) \
		$(BENCHDIRS)

# Scheduler scaling curve: the Table 2 subset swept at 1..16 workers (root
# bench_test.go BenchmarkParallelSweep). Medians over BENCHSCALE_COUNT runs
# feed results/BENCH_parallel.json; CI runs a workers={1,8} smoke of the
# same family and gates on gross regression.
BENCHSCALE_COUNT ?= 3
.PHONY: bench-scaling
bench-scaling:
	$(GO) test -run 'xxx' -bench 'BenchmarkParallelSweep' -benchmem \
		-count $(BENCHSCALE_COUNT) -timeout 60m .

# Cross-run cache contrast: the Table 2 subset swept cache-cold vs
# cache-warm (root bench_test.go BenchmarkWarmSweep; the warm arm asserts
# zero SAT calls). Medians feed results/BENCH_cache.json.
.PHONY: bench-cache
bench-cache:
	$(GO) test -run 'xxx' -bench 'BenchmarkWarmSweep' -benchmem \
		-count $(BENCHSCALE_COUNT) -timeout 30m .

# Cross-run cache soak via the CLI: sweep two Table 2 circuits cold then
# warm against one shared cache directory; the warm runs must be SAT-free
# (calls=0) and reduce to byte-identical networks.
CACHE_SOAK_DIR ?= /tmp/simgen_cache_soak
.PHONY: cache-soak
cache-soak:
	$(GO) build -o $(CACHE_SOAK_DIR)/sweep ./cmd/sweep 2>/dev/null || \
		{ rm -rf $(CACHE_SOAK_DIR) && mkdir -p $(CACHE_SOAK_DIR) && $(GO) build -o $(CACHE_SOAK_DIR)/sweep ./cmd/sweep; }
	rm -rf $(CACHE_SOAK_DIR)/cache $(CACHE_SOAK_DIR)/*.blif $(CACHE_SOAK_DIR)/*.log
	set -e; for b in cps pdc; do \
		$(CACHE_SOAK_DIR)/sweep -method none -cache-dir $(CACHE_SOAK_DIR)/cache \
			-reduce $(CACHE_SOAK_DIR)/$$b.cold.blif -benchmark $$b; \
		$(CACHE_SOAK_DIR)/sweep -method none -cache-dir $(CACHE_SOAK_DIR)/cache \
			-reduce $(CACHE_SOAK_DIR)/$$b.warm.blif -benchmark $$b \
			| tee $(CACHE_SOAK_DIR)/$$b.warm.log; \
		grep -q 'sweeping: calls=0 ' $(CACHE_SOAK_DIR)/$$b.warm.log; \
		cmp $(CACHE_SOAK_DIR)/$$b.cold.blif $(CACHE_SOAK_DIR)/$$b.warm.blif; \
	done
	@echo "cache-soak: warm runs SAT-free with byte-identical reduced networks"

# Datapath word-vs-bit contrast: CEC of the committed multiplier corpus
# pairs with the word-staged portfolio vs the plain bit-level
# portfolio (root bench_test.go BenchmarkDatapathCEC). The benchmark
# asserts the mul10x10 tripwire in-process (word must beat bit-level by
# >=2x wall clock; ~36x measured on a 2-vCPU Xeon); medians feed
# results/BENCH_datapath.json. The fuzz and replay halves of the
# datapath layer run via `make datapath-test`.
.PHONY: bench-datapath
bench-datapath:
	$(GO) test -run 'xxx' -bench 'BenchmarkDatapathCEC' -benchtime 1x \
		-count $(BENCHSCALE_COUNT) -timeout 30m .

# Datapath verification layer: golden corpus replay (word-staged CEC of
# every committed pair + the mutated NEQ pair), the word detection and
# word-engine unit layer, and a bounded differential fuzz campaign over the
# datapath preset with the injected-unsound word engine self-check.
.PHONY: datapath-test
datapath-test:
	$(GO) test -count=1 -run 'TestDatapathCorpusReplay' ./internal/sweep
	$(GO) test -count=1 -run 'TestDatapath|TestUnsoundWord|TestWordProofCache|TestPoisonedWordCache' ./internal/fuzz
	$(GO) test -count=1 ./internal/word ./internal/prover
	$(GO) run ./cmd/fuzz -n 60 -seed 1 -datapath -oracle differential

# Regression gate: re-run the micro-benchmarks and fail when any median
# time/op regressed >20% against the committed baseline.
.PHONY: bench-gate
bench-gate:
	$(GO) test -run 'xxx' -bench '$(BENCHES)' -benchmem -count $(BENCHCOUNT) \
		$(BENCHDIRS) | tee /tmp/bench_new.txt
	$(GO) run ./cmd/benchgate -base results/bench_baseline.txt -new /tmp/bench_new.txt

# Refresh the committed baseline (run on the reference machine only).
.PHONY: bench-baseline
bench-baseline:
	$(GO) test -run 'xxx' -bench '$(BENCHES)' -benchmem -count $(BENCHCOUNT) \
		$(BENCHDIRS) | tee results/bench_baseline.txt

# Service load soak: a self-hosted sweepd driven by the seeded load
# generator. LOAD_JOBS/LOAD_RATE scale the soak; the CI smoke uses the
# smaller load-smoke target. Fails on any transport/protocol error.
LOAD_JOBS ?= 200
LOAD_RATE ?= 100
.PHONY: load
load:
	$(GO) run ./cmd/loadgen -launch -n $(LOAD_JOBS) -c 8 -rate $(LOAD_RATE) -job-timeout 10s \
		-require-all-done -slo-admission-p99 1s

.PHONY: load-smoke
load-smoke:
	$(GO) run ./cmd/loadgen -launch -n 25 -c 4 -rate 50 -job-timeout 10s \
		-require-all-done -slo-admission-p99 500ms

.PHONY: experiments
experiments:
	$(GO) run ./cmd/experiments all
