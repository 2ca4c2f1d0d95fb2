#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a simgen
# checkout:
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# files, cache directories) stays in the checkout, under $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a simgen checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/simgen-bench" .)
exec "$out/simgen-bench" "$@"
