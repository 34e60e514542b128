#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (once per
# checkout, or again when a source file is newer than the binary) and
# runs it. Everything it writes stays inside the checkout: the Go build
# cache and module path are redirected into .bench_build/ too.
#
#   bash bench/run.sh --workload mon_live --seed 1 --seconds 14 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
bin=$build/flexric-perfbench
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local
if [ ! -x "$bin" ] || [ -n "$(find go.mod bench internal -name '*.go' -newer "$bin" -print -quit 2>/dev/null)" ] || [ go.mod -nt "$bin" ]; then
    mkdir -p "$build"
    go build -o "$bin" ./bench
fi
exec "$bin" "$@"
