#!/bin/sh
# verify.sh - the repository's full pre-merge check, also available as
# `make verify`. Runs formatting, vet, both build modes (telemetry on and
# compiled out), and the test suite under the race detector.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go build -tags notelemetry"
go build -tags notelemetry ./...

echo "==> go test (tier-1 suite)"
go test ./...

echo "==> go test -race -short"
# -short skips the reduced-scale experiment shape tests: they assert CPU
# bounds that are meaningless under the race detector's ~10x
# instrumentation overhead. Concurrency coverage is unaffected.
go test -race -short ./...

echo "==> scale smoke (4 cells x 10k UEs, 95% idle; allocs/UE-slot gate)"
# The sharded RAN core at a CI-sized footprint: 40k UEs step 400 slots
# and the whole fleet — parked UEs, wake heap, packet emission — must
# stay under 0.05 allocations per UE-slot. Catches any per-idle-UE cost
# creeping back into the slot loop.
go test -count=1 -run 'TestScaleSmoke$' -v ./internal/ran/ | grep -E '(=== RUN|--- (PASS|FAIL)|^(PASS|FAIL|ok)|allocs/UE-slot)'

echo "==> go test -tags notelemetry (telemetry compiled out)"
go test -tags notelemetry ./internal/telemetry/ ./internal/transport/ ./internal/e2ap/

echo "==> go build -tags nofaultinject"
go build -tags nofaultinject ./...

echo "==> go test -tags nofaultinject (fault injection compiled out)"
go test -tags nofaultinject ./internal/faultinject/ ./internal/resilience/ ./internal/agent/ ./internal/server/

echo "==> seeded chaos suite (scripted drops + blackout, both codecs)"
go test -count=1 -run 'TestChaosDemo' -v ./internal/experiments/ | grep -E '^(=== RUN|--- (PASS|FAIL)|PASS|FAIL|ok)'

echo "==> control-room demo (WebSocket stream e2e, both codecs)"
# A headless WS client dials a live monitoring loop's /stream/ws,
# subscribes to mac.* deltas plus topology and span channels, receives
# batched delta frames, and closes with a clean RFC 6455 handshake.
go test -count=1 -run 'TestControlRoomDemo' -v ./internal/experiments/ | grep -E '^(=== RUN|--- (PASS|FAIL)|PASS|FAIL|ok)'

echo "==> A1 SLA closed-loop demo (violate -> remedy -> reconnect storm, both codecs)"
# An SLA policy installed over the /a1/* northbound: a load surge breaks
# the throughput target (VIOLATED), the enforcement loop shifts NVS
# capacity toward the SLA slice until the target holds again (ENFORCED),
# and slice churn plus three scripted connection drops do not unseat the
# verdict. Status transitions are asserted on the control-room a1
# channel and at /a1/status.
go test -count=1 -run 'TestSLADemo' -v ./internal/experiments/ | grep -E '^(=== RUN|--- (PASS|FAIL)|PASS|FAIL|ok)'

echo "==> federation demo (kill one shard -> re-home + snapshot restore, both codecs)"
# A root + 3 shards + 12 agents placed by consistent hashing. Killing
# the shard owning agent 1 must re-home its agents to the ring
# successor, resume the root's cross-shard subscription streams, and
# leave a federated windowed query over the pre-kill window equal to
# the pre-kill baseline — proof the successor restored the dead shard's
# tsdb snapshot.
go test -count=1 -run 'TestFederationDemo' -v ./internal/experiments/ | grep -E '^(=== RUN|--- (PASS|FAIL)|PASS|FAIL|ok)'

echo "==> go build -tags notrace"
go build -tags notrace ./...

echo "==> go test -tags notrace (tracing compiled out)"
go test -tags notrace ./internal/trace/ ./internal/transport/ ./internal/e2ap/

echo "==> hot-path benchmarks (allocation ceiling)"
# BenchmarkTransportHotPath guards the framed-TCP echo against telemetry
# regressions; BenchmarkTraceDisabled must report 0 allocs/op — unsampled
# tracing is required to be free on the hot path.
bench_out=$(go test -run xxx -bench 'BenchmarkTransportHotPath$|BenchmarkTraceDisabled$' -benchtime 100x . 2>&1)
echo "$bench_out"
if ! echo "$bench_out" | grep -q 'BenchmarkTraceDisabled'; then
    echo "verify: BenchmarkTraceDisabled did not run" >&2
    exit 1
fi
if ! echo "$bench_out" | grep 'BenchmarkTraceDisabled' | grep -q ' 0 allocs/op'; then
    echo "verify: disabled-trace hot path allocates" >&2
    exit 1
fi

echo "==> resilience send hot path (0 allocs/op gate)"
# The keepalive wrapper sits on the indication hot path; its no-fault
# Send must stay allocation-free.
res_out=$(go test -run xxx -bench 'BenchmarkResilienceSendHotPath$' -benchtime 100x ./internal/resilience/ 2>&1)
echo "$res_out"
if ! echo "$res_out" | grep -q 'BenchmarkResilienceSendHotPath'; then
    echo "verify: BenchmarkResilienceSendHotPath did not run" >&2
    exit 1
fi
if ! echo "$res_out" | grep 'BenchmarkResilienceSendHotPath' | grep -q ' 0 allocs/op'; then
    echo "verify: resilience send hot path allocates" >&2
    exit 1
fi

echo "==> indication fast path (<=2 allocs/op gate, all build modes)"
# The E2AP leg of the indication pipeline — agent encode-append, pipe
# transport, server envelope dispatch, subscription callback — must stay
# (near-)allocation-free with telemetry compiled in and tracing
# unsampled, and in every stripped build mode. The gate accepts 0, 1 or
# 2 allocs/op.
for tags in "" "notelemetry" "notrace"; do
    if [ -n "$tags" ]; then
        label="-tags $tags"
        fp_out=$(go test -tags "$tags" -run xxx -bench 'BenchmarkIndicationFastPath$' -benchtime 500x . 2>&1)
    else
        label="default build"
        fp_out=$(go test -run xxx -bench 'BenchmarkIndicationFastPath$' -benchtime 500x . 2>&1)
    fi
    echo "--- $label"
    echo "$fp_out"
    if ! echo "$fp_out" | grep -q 'BenchmarkIndicationFastPath'; then
        echo "verify: BenchmarkIndicationFastPath did not run ($label)" >&2
        exit 1
    fi
    if ! echo "$fp_out" | grep 'BenchmarkIndicationFastPath' | grep -Eq ' [0-2] allocs/op'; then
        echo "verify: indication fast path exceeds 2 allocs/op ($label)" >&2
        exit 1
    fi
done

echo "==> indication path, system level (<=0.25 mallocs/indication gate)"
# The gate above feeds one pre-encoded payload over the FB codec and the
# pipe transport. This one runs the loop a deployment runs — the real
# MAC/RLC/PDCP SMs over a sharded cell, agent batching, loopback TCP,
# server dispatch, monitor raw archive — under both schemes and bounds
# the process-wide mallocs per indication received.
ip_out=$(go test -count=1 -run 'TestIndicationPathAllocs$' -v ./internal/ctrl/ 2>&1) || {
    echo "$ip_out"
    echo "verify: indication path exceeds 0.25 mallocs per indication" >&2
    exit 1
}
echo "$ip_out" | grep -E '(mallocs per indication|^--- (PASS|FAIL)|^ok)'
if ! echo "$ip_out" | grep -q -- '--- PASS: TestIndicationPathAllocs'; then
    echo "verify: TestIndicationPathAllocs did not run" >&2
    exit 1
fi

echo "==> tsdb append (<=1 alloc/op) and row append (0 allocs/op) gates, all build modes"
# Steady-state time-series ingest must stay allocation-free whether
# telemetry and tracing are compiled in or out: a single-sample Append
# (the gate accepts 0 or 1 allocs/op), and the nine-field AppendRow the
# monitor performs per UE of every decoded report, with and without the
# stream hub's hook (0 allocs/op).
for tags in "" "notelemetry" "notrace"; do
    if [ -n "$tags" ]; then
        label="-tags $tags"
        ts_out=$(go test -tags "$tags" -run xxx -bench 'BenchmarkTSDBAppend$|BenchmarkTSDBAppendRow$' -benchtime 10000x ./internal/tsdb/ 2>&1)
    else
        label="default build"
        ts_out=$(go test -run xxx -bench 'BenchmarkTSDBAppend$|BenchmarkTSDBAppendRow$' -benchtime 10000x ./internal/tsdb/ 2>&1)
    fi
    echo "--- $label"
    echo "$ts_out"
    append=$(echo "$ts_out" | grep -E '^BenchmarkTSDBAppend(-[0-9]+)?[[:space:]]' || true)
    rows=$(echo "$ts_out" | grep -E '^BenchmarkTSDBAppendRow/hook=(on|off)' || true)
    if [ -z "$append" ] || [ "$(echo "$rows" | grep -c .)" -ne 2 ]; then
        echo "verify: BenchmarkTSDBAppend or BenchmarkTSDBAppendRow did not run ($label)" >&2
        exit 1
    fi
    if ! echo "$append" | grep -Eq ' [0-1] allocs/op'; then
        echo "verify: tsdb append exceeds 1 alloc/op ($label)" >&2
        exit 1
    fi
    if echo "$rows" | grep -vq ' 0 allocs/op'; then
        echo "verify: tsdb row append allocates ($label)" >&2
        exit 1
    fi
done

echo "==> tsdb chunk seal (<=2 allocs/op gate)"
# A seal encodes into a pooled scratch buffer and allocates only the
# chunk and its exact-size bits.
seal_out=$(go test -run xxx -bench 'BenchmarkTSDBChunkSeal$' -benchtime 200x ./internal/tsdb/ 2>&1)
echo "$seal_out"
if ! echo "$seal_out" | grep -q 'BenchmarkTSDBChunkSeal'; then
    echo "verify: BenchmarkTSDBChunkSeal did not run" >&2
    exit 1
fi
if ! echo "$seal_out" | grep 'BenchmarkTSDBChunkSeal' | grep -Eq ' [0-2] allocs/op'; then
    echo "verify: tsdb chunk seal exceeds 2 allocs/op" >&2
    exit 1
fi

echo "==> tsdb append with stream hook registered (<=1 alloc/op gate)"
# The control-room hub taps every Append through SetAppendHook; the gate
# proves a registered hook (mutex + ring write, as the hub installs)
# keeps the ingest path allocation-free.
hk_out=$(go test -run xxx -bench 'BenchmarkTSDBAppendHooked$' -benchtime 10000x ./internal/tsdb/ 2>&1)
echo "$hk_out"
if ! echo "$hk_out" | grep -q 'BenchmarkTSDBAppendHooked'; then
    echo "verify: BenchmarkTSDBAppendHooked did not run" >&2
    exit 1
fi
if ! echo "$hk_out" | grep 'BenchmarkTSDBAppendHooked' | grep -Eq ' [0-1] allocs/op'; then
    echo "verify: hooked tsdb append exceeds 1 alloc/op" >&2
    exit 1
fi

echo "==> federated partial leg (allocations flat in matching series)"
# A windowed /tsdb/partial call folds every matching series into one
# bucket list: its allocations at 128 series may exceed those at 8 by at
# most 8 (a per-series merge cost ~3 100 at 128).
pa_out=$(go test -count=1 -run 'TestPartialHandlerAllocs$' -v ./internal/obs/ 2>&1) || {
    echo "$pa_out"
    echo "verify: /tsdb/partial allocations grow with matching series" >&2
    exit 1
}
echo "$pa_out" | grep -E '(allocs per windowed|^--- (PASS|FAIL)|^ok)'
if ! echo "$pa_out" | grep -q -- '--- PASS: TestPartialHandlerAllocs'; then
    echo "verify: TestPartialHandlerAllocs did not run" >&2
    exit 1
fi

echo "==> doc lint (markdown links, documented flags, BENCH_*.json names)"
sh scripts/doclint.sh

echo "==> bench suite smoke run"
# The full scripts/bench.sh suite at token iteration counts: proves
# every benchmark still runs and the JSON emitter works, without paying
# for real measurements. The throwaway output must parse as JSON (guards
# the awk emitter against bench-output format drift).
smoke_out=$(mktemp)
trap 'rm -f "$smoke_out"' EXIT INT TERM
FIG_BENCHTIME=1x HOT_BENCHTIME=10x MICRO_BENCHTIME=10x \
    SCALE_BENCHTIME=10x SCALE_BASE_BENCHTIME=5x \
    SCALE_CELLS=2 SCALE_UES_PER_CELL=200 SCALE_IDLE_PCT=90 SCALE_SHARDS=2 \
    OUT="$smoke_out" sh scripts/bench.sh >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$smoke_out"
fi
echo "bench smoke: OK"

echo "verify: OK"
