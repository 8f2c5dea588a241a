#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind stays inside the checkout, under .bench_build/. Run from the
# repository root: bash bench/run.sh --workload h6-adv-sat --seed 1 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench >&2
exec "$build/bench" "$@"
