#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   sh benchmark/run.sh --workload grid-analytic --seed 1 --seconds 30 --trace 0
#   sh benchmark/run.sh set -runs 5 -out .bench_build/a.jsonl
#   sh benchmark/run.sh compare .bench_build/a.jsonl .bench_build/b.jsonl
#
# Every build output (the binary, the Go build cache, temporary files and the
# toolchain's telemetry counters) stays under .bench_build in the checkout.
# The module resolves the system under test through `replace repro => ../`,
# so outside a full checkout the build fails and nothing is run.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
