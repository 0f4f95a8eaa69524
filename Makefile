GO ?= go

.PHONY: all build test race vet lint lint-json bench bench-smoke bench-test bench-baseline scale-smoke

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

# bench-baseline records the layer benchmarks (CI's layer-smoke set: cap
# search, eccentricity probe, flood construction, measurement, relaxation,
# convergecast, decomposition, MST), five samples each with allocations, as
# JSON for perf tracking across changes (compare with benchstat or jq).
# Record it on one host and compare only records from the same host.
bench-baseline:
	$(GO) test -run '^$$' -bench 'SearchCap|MaxAugmentedEcc|FloodConstruct|Measure|BatchRelax|Pipecast|BoruvkaDecompose|ShortcutBoruvka' -count=5 -benchmem -json ./internal/congest ./internal/shortcut ./internal/mst > BENCH_baseline.json
