#!/usr/bin/env bash
# benchpair.sh - paired benchmark runs of a reference commit against the
# checkout: the evidence a performance claim needs (docs/PERFORMANCE.md,
# "Running the suite").
#
#   bash scripts/benchpair.sh <ref> <N> [bench args]
#   bash scripts/benchpair.sh HEAD~1 10 --workload mon_live --seed 1 --seconds 14
#
# Exports <ref> with git archive into .bench_build/ref and builds the
# benchmark there; builds the checkout as it stands, uncommitted edits
# included, into .bench_build/head. It then runs N pairs of every named
# workload (all of BENCHMARK.json's without --workload), alternating
# which side goes first, keeps each run's output in .bench_build/pairs
# and prints median, quartiles, change of the median and "head better
# k/N" per workload and end-to-end metric. It exits non-zero when a run
# fails, when counts: lines differ, or when a head median is worse than
# the ref median by more than the metric's BENCHMARK.json bound. Run
# nothing else beside it: the clocks are the box's. `make clean` removes
# everything it writes.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 2 ]; then
    echo "usage: $0 <ref> <N> [bench args]" >&2
    exit 2
fi
ref=$1 n=$2
shift 2
build=$PWD/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local
rm -rf "$build/ref" "$build/head" "$build/pairs"
mkdir -p "$build/ref/src" "$build/head"
git archive "$ref" | tar -x -C "$build/ref/src"
(cd "$build/ref/src" && go build -o "$build/ref/flexric-perfbench" ./bench)
go build -o "$build/head/flexric-perfbench" ./bench
go build -o "$build/head/benchpair" ./scripts/benchpair
exec "$build/head/benchpair" -ref "$build/ref/flexric-perfbench" -head "$build/head/flexric-perfbench" \
    -n "$n" -- "$@"
