#!/bin/sh
# Paper benchmark suite + hot-path microbenches, with machine-readable
# output.
#
# Runs the Fig. 6/7/8 and Table 2 experiment benchmarks (reduced scale,
# -benchtime FIG_BENCHTIME), the fast-path microbenchmarks
# (-benchtime HOT_BENCHTIME / MICRO_BENCHTIME), the time-series store
# tier (append at MICRO_BENCHTIME, queries at HOT_BENCHTIME), and the
# compression tier (seal/decode/compressed queries, with the
# bytes/sample ReportMetric), the A1 SLA tier (enforcement-tick latency
# with the policies/s ReportMetric), and the scale tier (a cells x UEs
# fleet stepped by the sharded core vs the frozen pre-change per-UE
# loop, with ue_slots/s, p99_slot_ns and bytes/ue ReportMetrics), and
# the federation tier (consistent-hash placement and mergeable-partial
# union), all with -benchmem, and writes a JSON file mapping
# benchmark name ->
# ns/op, B/op, allocs/op (plus any custom b.ReportMetric units, e.g.
# ue_slots/s -> ue_slots_s). The JSON also embeds two baselines so a
# reviewer can diff without checking out old trees: the pre-fast-path
# allocation counts and the pre-compression (PR 5) query latencies. See
# docs/PERFORMANCE.md.
#
# Tunables (env):
#   FIG_BENCHTIME    iterations for the simulation-backed figure benches
#                    (default 1x: each iteration is a full experiment)
#   HOT_BENCHTIME    iterations for end-to-end hot paths (default 2000x)
#   MICRO_BENCHTIME  iterations for pure-CPU microbenches (default 200000x)
#   SCALE_BENCHTIME       slots for the sharded scale bench (default 1000x)
#   SCALE_BASE_BENCHTIME  slots for the per-UE-loop baseline (default 200x:
#                         each slot sweeps the full fleet, so iterations
#                         are ~50x slower than the sharded core's)
#   SCALE_CELLS, SCALE_UES_PER_CELL, SCALE_IDLE_PCT, SCALE_SHARDS
#                    scale-tier fleet shape (default 1000 cells x 1000
#                    UEs = 1M UEs at 99% idle, 4 shards per cell)
#   OUT              output file (default .bench_build/bench-suite.json;
#                    the committed BENCH_pr*.json are earlier runs)
set -eu
cd "$(dirname "$0")/.."

GO=${GO:-go}
FIG_BENCHTIME=${FIG_BENCHTIME:-1x}
HOT_BENCHTIME=${HOT_BENCHTIME:-2000x}
MICRO_BENCHTIME=${MICRO_BENCHTIME:-200000x}
SCALE_BENCHTIME=${SCALE_BENCHTIME:-1000x}
SCALE_BASE_BENCHTIME=${SCALE_BASE_BENCHTIME:-200x}
SCALE_CELLS=${SCALE_CELLS:-1000}
SCALE_UES_PER_CELL=${SCALE_UES_PER_CELL:-1000}
SCALE_IDLE_PCT=${SCALE_IDLE_PCT:-99}
SCALE_SHARDS=${SCALE_SHARDS:-4}
export SCALE_CELLS SCALE_UES_PER_CELL SCALE_IDLE_PCT SCALE_SHARDS
OUT=${OUT:-.bench_build/bench-suite.json}
mkdir -p "$(dirname "$OUT")"

TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT INT TERM

run() { # run <benchtime> <package> <regex>
    bt=$1; pkg=$2; re=$3
    "$GO" test -run xxx -bench "$re" -benchtime "$bt" -benchmem -timeout 60m "$pkg" | tee -a "$TMP"
}

# Micro and hot-path benches run first, before the simulation-backed
# figure suite heats the machine: the long experiment benches shift the
# CPU's thermal operating point enough to skew ~200 ns encode readings
# by 10%+.
echo "==> microbenches (benchtime $MICRO_BENCHTIME)"
run "$MICRO_BENCHTIME" ./internal/e2ap/ 'BenchmarkEncodeIndicationPER$|BenchmarkEncodeIndicationFlat$|BenchmarkEnvelopePER$|BenchmarkEnvelopeFlat$'
run "$MICRO_BENCHTIME" ./internal/bufpool/ 'BenchmarkGetPut$'

echo "==> end-to-end hot paths (benchtime $HOT_BENCHTIME)"
run "$HOT_BENCHTIME" . 'BenchmarkIndicationFastPath$|BenchmarkIndicationFastPathBatch$|BenchmarkTransportHotPath$|BenchmarkTraceDisabled$'
run "$HOT_BENCHTIME" ./internal/broker/ 'BenchmarkPublishDeliver$'
run "$HOT_BENCHTIME" ./internal/resilience/ 'BenchmarkResilienceSendHotPath$'

echo "==> time-series store (append @$MICRO_BENCHTIME, queries @$HOT_BENCHTIME)"
run "$MICRO_BENCHTIME" ./internal/tsdb/ 'BenchmarkTSDBAppend$|BenchmarkTSDBAppendParallel$|BenchmarkTSDBAppendRaw$'
run "$HOT_BENCHTIME" ./internal/tsdb/ 'BenchmarkTSDBLastK$|BenchmarkTSDBAggregate$|BenchmarkTSDBWindowQuery$'

echo "==> compression tier (seal/decode @$HOT_BENCHTIME)"
run "$MICRO_BENCHTIME" ./internal/tsdb/ 'BenchmarkTSDBCompressedAppend$'
run "$HOT_BENCHTIME" ./internal/tsdb/ 'BenchmarkTSDBChunkSeal$|BenchmarkTSDBChunkDecode$|BenchmarkTSDBCompressedWindowQuery$|BenchmarkTSDBSnapshot$'

echo "==> A1 SLA enforcement tier (benchtime $HOT_BENCHTIME)"
# One full enforcement tick — policy scan, slice-status fetch over a
# live HTTP northbound, windowed percentile evaluation per target — with
# the policies/s throughput ReportMetric.
run "$HOT_BENCHTIME" ./internal/xapp/ 'BenchmarkSLAEnforceTick$'

echo "==> federation tier (ring placement @$MICRO_BENCHTIME, partial merge @$HOT_BENCHTIME)"
# Owner lookup is on every agent (re)connect and takeover grouping;
# PartialMerge is the root's per-shard fold inside the federated query
# fan-out.
run "$MICRO_BENCHTIME" ./internal/federation/ 'BenchmarkRingOwner$'
run "$HOT_BENCHTIME" ./internal/tsdb/ 'BenchmarkPartialMerge$'

echo "==> figure suite (benchtime $FIG_BENCHTIME)"
run "$FIG_BENCHTIME" . 'BenchmarkFig6aAgentOverhead$|BenchmarkFig6bUESweep$|BenchmarkFig7aPingRTT$|BenchmarkFig7bSignaling$|BenchmarkFig8aControllerVsFlexRAN$|BenchmarkFig8bAgentSweep$|BenchmarkTable2Footprint$'

echo "==> scale tier (${SCALE_CELLS}x${SCALE_UES_PER_CELL} UEs, ${SCALE_IDLE_PCT}% idle, ${SCALE_SHARDS} shards)"
# The sharded/active-set core vs the frozen pre-change per-UE loop on
# the same fleet and traffic mix. Fleets are cached across b.N
# escalations, so the dominant cost is the slots themselves. Speedup =
# sharded ue_slots_s / baseline ue_slots_s.
run "$SCALE_BENCHTIME" ./internal/ran/ 'BenchmarkScaleShardedStep$'
run "$SCALE_BASE_BENCHTIME" ./internal/ran/ 'BenchmarkScaleBaselineStep$'

echo "==> writing $OUT"
{
    printf '{\n'
    printf '  "schema": "flexric-bench-v1",\n'
    printf '  "generated_by": "scripts/bench.sh",\n'
    printf '  "go": "%s",\n' "$("$GO" env GOVERSION)"
    printf '  "benchtime": {"fig": "%s", "hot": "%s", "micro": "%s", "scale": "%s", "scale_base": "%s"},\n' \
        "$FIG_BENCHTIME" "$HOT_BENCHTIME" "$MICRO_BENCHTIME" "$SCALE_BENCHTIME" "$SCALE_BASE_BENCHTIME"
    printf '  "scale": {"cells": %s, "ues_per_cell": %s, "idle_pct": %s, "shards": %s},\n' \
        "$SCALE_CELLS" "$SCALE_UES_PER_CELL" "$SCALE_IDLE_PCT" "$SCALE_SHARDS"
    # Measured on the commit immediately before the zero-allocation fast
    # path landed (same machine class, -benchmem). The encode benches
    # were already allocation-free; the fast path's win there is the
    # availability of EncodeAppend, not a delta on these numbers.
    cat <<'EOF'
  "baseline_pre_fastpath": {
    "BenchmarkEncodeIndicationPER": {"ns_op": 206.2, "B_op": 1, "allocs_op": 0},
    "BenchmarkEncodeIndicationFlat": {"ns_op": 197.6, "B_op": 3, "allocs_op": 0},
    "BenchmarkEnvelopePER": {"ns_op": 1168, "B_op": 1666, "allocs_op": 3},
    "BenchmarkEnvelopeFlat": {"ns_op": 263.6, "B_op": 68, "allocs_op": 1},
    "BenchmarkTransportHotPath": {"ns_op": 15319, "B_op": 3216, "allocs_op": 6},
    "BenchmarkPublishDeliver": {"ns_op": 19542, "B_op": 3287, "allocs_op": 16}
  },
  "baseline_pr5_tsdb": {
    "_comment": "query latencies before chunk compression and the single-pass Window rewrite (PR 5 tree, same machine class); raw samples were 16 bytes each with no compressed tier",
    "BenchmarkTSDBWindowQuery": {"ns_op": 373000, "B_op": 254640, "allocs_op": 122}
  },
EOF
    printf '  "benchmarks": {\n'
    awk '
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            body = ""
            for (i = 3; i + 1 <= NF; i += 2) {
                key = $(i + 1)
                gsub(/\//, "_", key)
                gsub(/%/, "pct_", key)
                if (body != "") body = body ", "
                body = body sprintf("\"%s\": %s", key, $i)
            }
            if (out != "") print out ","
            out = sprintf("    \"%s\": {%s}", name, body)
        }
        END { if (out != "") print out }
    ' "$TMP"
    printf '  }\n}\n'
} >"$OUT"

echo "bench: wrote $OUT"
