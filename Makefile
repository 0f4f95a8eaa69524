GO ?= go

.PHONY: all build test race vet lint lint-json bench bench-smoke bench-layers bench-test bench-baseline scale-smoke scale-million

all: vet lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs congestlint (the repository's go/analysis suite: detmap,
# errflow, hotalloc, ledger, purity, seededrand, zeromask) plus a gofmt
# cleanliness check.
lint:
	$(GO) run ./cmd/congestlint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# lint-json emits the same findings as machine-readable JSON (for CI
# annotations and tooling).
lint-json:
	$(GO) run ./cmd/congestlint -json ./...

bench:
	$(GO) test -bench=. -benchmem -run=NONE .

bench-smoke:
	$(GO) test -bench='Tables/^(E5|E9|E13|E14|E15|E18|E19)$$' -benchtime=1x -run=NONE .

# bench-test vets and tests the end-to-end benchmark in benchmark/, a
# module of its own (repro/benchmark, replace repro => ../) that the root
# ./... patterns do not reach. Its tests pin the benchmark's stage driver
# to experiments.ScalePipeline, so a change to the congest, pipeline or mst
# API it imports fails here.
bench-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# scale-smoke runs the full zero-witness pipeline at 10⁵ nodes (grid +
# wheel, hybrid mode) with a bounded wall-clock — the CI guard that the
# million-node path stays subquadratic. The 10⁶ run itself lives in
# BenchmarkScaleMillionPipeline.
scale-smoke:
	$(GO) test -run 'TestScaleSmoke100k' -count=1 -v ./internal/experiments

# scale-million runs the analytic 10⁶ grid pipeline (~12 s and 2.5–3 GB
# on 2 vCPUs) and prints its stage table and peak RSS. The binary runs
# under a 6 GB address-space limit (ulimit -v) set in its own shell, so
# a run that needs more fails on its own instead of pushing the host into
# the OOM killer; the build runs unlimited.
scale-million:
	$(GO) build -o .scale_build/graphgen ./cmd/graphgen
	ulimit -v 6000000 && .scale_build/graphgen -scale -family grid -n 1000000 -mode analytic

# LAYER_BENCH and LAYER_PKGS are the layer benchmarks: cap search,
# eccentricity probe, flood construction, measurement, relaxation,
# convergecast, decomposition and MST.
LAYER_BENCH = SearchCap|MaxAugmentedEcc|FloodConstruct|Measure|BatchRelax|Pipecast|BoruvkaDecompose|ShortcutBoruvka
LAYER_PKGS = ./internal/congest ./internal/shortcut ./internal/mst

# bench-layers runs every layer benchmark once, and engine delivery's (the
# election and BFS floods on the 10⁴ grid and wheel, in benchmark/), so a
# broken layer benchmark fails.
bench-layers:
	$(GO) test -run '^$$' -bench '$(LAYER_BENCH)' -benchtime=1x $(LAYER_PKGS)
	cd benchmark && $(GO) test -run '^$$' -bench 'Flood/./(grid|wheel)/n=10000$$' -benchtime=1x -short

# bench-baseline records the layer benchmarks, five samples each with
# allocations, as JSON for perf tracking across changes (compare with
# benchstat or jq). Record it on one host and compare only records from the
# same host.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(LAYER_BENCH)' -count=5 -benchmem -json $(LAYER_PKGS) > BENCH_baseline.json
