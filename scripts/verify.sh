#!/bin/sh
# verify.sh - the repository's full pre-merge check, also available as
# `make verify`. Runs formatting, vet, the build, the test suite (also
# under the race detector), the demo suites and the allocation gates.
set -eu

cd "$(dirname "$0")/.."

# demo RUN PKG [LOG] runs one acceptance test verbosely, prints its run
# and pass lines (and the log lines matching LOG), and fails the check
# when the test fails.
demo() {
    out=$(go test -count=1 -run "$1" -v "$2" 2>&1) || {
        echo "$out"
        echo "verify: $1 failed" >&2
        exit 1
    }
    echo "$out" | grep -E "^ *(=== RUN|--- (PASS|FAIL)|PASS|FAIL|ok)${3:+|$3}"
}

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

echo "==> examples (build and run each)"
# The examples are the SDK's runnable documentation: each builds, runs
# its deployment in-process for a few simulated seconds, and must exit 0.
ex=$(mktemp -d)
for dir in examples/*/; do
    name=$(basename "$dir")
    go build -o "$ex/$name" "./$dir"
    if ! "$ex/$name" > "$ex/$name.out" 2>&1; then
        cat "$ex/$name.out"
        rm -rf "$ex"
        echo "verify: example $name failed" >&2
        exit 1
    fi
    echo "ok $name"
done
rm -rf "$ex"

echo "==> go test (tier-1 suite)"
go test ./...

echo "==> figure shapes under load (beside the tsdb and ran test binaries)"
# The comparison figures measure their configurations interleaved, so
# load from a parallel package falls on every configuration alike. The
# tsdb and ran test binaries run in a loop beside three runs of the
# figure shape tests; only the figure tests' outcome counts.
fig=$(mktemp -d)
for p in experiments tsdb ran; do
    go test -c -o "$fig/$p.test" "./internal/$p/"
done
for p in tsdb ran; do
    (cd "internal/$p" && while [ ! -e "$fig/done" ]; do "$fig/$p.test" > /dev/null 2>&1 || true; done) &
done
fig_rc=0
(cd internal/experiments && "$fig/experiments.test" -test.run 'TestFig(6a|7a|8a|8b|9a)Shape$' \
    -test.count=3 -test.v) > "$fig/out" 2>&1 || fig_rc=$?
touch "$fig/done"
wait
if [ "$fig_rc" -ne 0 ]; then
    cat "$fig/out"
    rm -rf "$fig"
    echo "verify: figure shapes failed under load" >&2
    exit 1
fi
grep -E '^(--- (PASS|FAIL)|PASS|FAIL)' "$fig/out"
rm -rf "$fig"

echo "==> go test -race -short"
# -short skips the reduced-scale experiment shape tests: they assert CPU
# bounds that are meaningless under the race detector's ~10x
# instrumentation overhead. Concurrency coverage is unaffected.
go test -race -short ./...

echo "==> proxy core under -race, ten runs"
# A subscription that arrives before its south agent is parked and
# placed by the agent's connect hook; that race between a north
# subscription and a south connect rarely shows in a single run.
go test -race -count=10 -run 'Proxy|Relay|VirtCtrl|Recursive|Parked' ./internal/ctrl/ ./internal/federation/

echo "==> connection contract and leg telemetry under -race, ten runs"
# Every Conn (stream, pipe, each under the fault and keepalive wrappers)
# against the one contract, and the dropped-leg count on a shard the
# root still lists but can no longer reach.
go test -race -count=10 -run 'TestConnContract|TestWrapNothingIsIdentity|TestStreamReassemblesTrickledFrames' ./internal/transport/
go test -race -count=10 -run 'TestLegTelemetry' ./internal/federation/

echo "==> scale smoke (4 cells x 10k UEs, 95% idle; allocs/UE-slot gate)"
# The sharded RAN core at a CI-sized footprint: 40k UEs step 400 slots
# and the whole fleet — parked UEs, wake heap, packet emission — must
# stay under 0.05 allocations per UE-slot. Catches any per-idle-UE cost
# creeping back into the slot loop.
demo 'TestScaleSmoke$' ./internal/ran/ 'allocs/UE-slot'

echo "==> RAN slot at drop-tail steady state (0 allocs per TTI gate)"
# 32 saturating UEs whose RLC rings have reached their size step 500
# TTIs, a garbage collection before every 100: the packet path, the PF
# heap and the drops must allocate nothing (counted from the memory
# profile, so the runtime's own background allocations do not count).
demo 'TestCellStepSteadyStateAllocs$' ./internal/ran/

echo "==> seeded chaos suite (scripted drops + blackout, both codecs)"
# The reconnect-churn test, once per cut: the test closing the live
# connection, and the fault plan (drop@120,drop@120 on the agent,
# blackout@1=2 on the listener) under each codec. Every cut ends in a
# re-admission under the same AgentID with the subscription replayed,
# and the recovery counters move on /snapshot.json.
demo 'TestMonitorTSDBReconnectChurn' ./internal/ctrl/

echo "==> control-room demo (WebSocket stream e2e, both codecs)"
# A headless WS client dials a live monitoring loop's /stream/ws,
# subscribes to mac.* deltas plus topology and span channels, receives
# batched delta frames, and closes with a clean RFC 6455 handshake.
demo 'TestControlRoomDemo' ./internal/experiments/

echo "==> A1 SLA closed-loop demo (violate -> remedy -> reconnect storm, both codecs)"
# An SLA policy installed over the /a1/* northbound: a load surge breaks
# the throughput target (VIOLATED), the enforcement loop shifts NVS
# capacity toward the SLA slice until the target holds again (ENFORCED),
# and slice churn plus three scripted connection drops do not unseat the
# verdict. Status transitions are asserted on the control-room a1
# channel and at /a1/status.
demo 'TestSLADemo' ./internal/experiments/

echo "==> federation demo (kill one shard -> re-home + snapshot restore, both codecs)"
# A root + 3 shards + 6 agents placed by consistent hashing, once per
# codec pair. Killing the shard owning agent 1 must re-home its agents
# to the ring successor, resume the root's cross-shard subscription
# streams, and leave a federated windowed query over the pre-kill
# window equal to the pre-kill baseline — proof the successor restored
# the dead shard's tsdb snapshot.
demo 'TestFederationFailover$' ./internal/federation/

echo "==> hot-path benchmarks (allocation ceiling)"
# BenchmarkTransportHotPath guards the framed-TCP echo against telemetry
# regressions; BenchmarkTraceDisabled must report 0 allocs/op — unsampled
# tracing is required to be free on the hot path.
bench_out=$(go test -run xxx -bench 'BenchmarkTransportHotPath$|BenchmarkTraceDisabled$' -benchtime 100x ./internal/transport/ ./internal/trace/ 2>&1)
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

echo "==> indication fast path (<=2 allocs/op gate)"
# The E2AP leg of the indication pipeline — agent encode-append, pipe
# transport, server envelope dispatch, subscription callback — must stay
# (near-)allocation-free with telemetry on and tracing unsampled. The
# gate accepts 0, 1 or 2 allocs/op.
fp_out=$(go test -run xxx -bench 'BenchmarkIndicationFastPath$' -benchtime 500x ./internal/server/ 2>&1)
echo "$fp_out"
if ! echo "$fp_out" | grep -q 'BenchmarkIndicationFastPath'; then
    echo "verify: BenchmarkIndicationFastPath did not run" >&2
    exit 1
fi
if ! echo "$fp_out" | grep 'BenchmarkIndicationFastPath' | grep -Eq ' [0-2] allocs/op'; then
    echo "verify: indication fast path exceeds 2 allocs/op" >&2
    exit 1
fi

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

echo "==> tsdb append (<=1 alloc/op) and row append (0 allocs/op) gates"
# Steady-state time-series ingest must stay allocation-free: a
# single-sample Append (the gate accepts 0 or 1 allocs/op), and the
# nine-field AppendRow the monitor performs per UE of every decoded
# report, with and without the stream hub's hook, and the fleet case
# (rows round-robin over 4096 UEs x 3 functions; 0 allocs/op each).
ts_out=$(go test -run xxx -bench 'BenchmarkTSDBAppend$|BenchmarkTSDBAppendRow$' -benchtime 10000x ./internal/tsdb/ 2>&1)
echo "$ts_out"
append=$(echo "$ts_out" | grep -E '^BenchmarkTSDBAppend(-[0-9]+)?[[:space:]]' || true)
rows=$(echo "$ts_out" | grep -E '^BenchmarkTSDBAppendRow/(hook=(on|off)|fleet)' || true)
if [ -z "$append" ] || [ "$(echo "$rows" | grep -c .)" -ne 3 ]; then
    echo "verify: BenchmarkTSDBAppend or BenchmarkTSDBAppendRow did not run" >&2
    exit 1
fi
if ! echo "$append" | grep -Eq ' [0-1] allocs/op'; then
    echo "verify: tsdb append exceeds 1 alloc/op" >&2
    exit 1
fi
if echo "$rows" | grep -vq ' 0 allocs/op'; then
    echo "verify: tsdb row append allocates" >&2
    exit 1
fi

echo "==> tsdb chunk seal (<=2 allocs/op) and recycled seal (0 allocs/op) gates"
# A seal encodes into a pooled scratch buffer. Onto a chain that still
# grows it allocates only the chunk and its exact-size bits; onto a full
# chain it writes into the chunk retention retires, so a compressed
# series at steady state (chain full, tiers at their caps) appends,
# seals and folds without allocating.
seal_out=$(go test -run xxx -bench 'BenchmarkTSDBChunkSeal$|BenchmarkTSDBSealRecycled$' -benchtime 200x ./internal/tsdb/ 2>&1)
echo "$seal_out"
if ! echo "$seal_out" | grep -q 'BenchmarkTSDBChunkSeal' || ! echo "$seal_out" | grep -q 'BenchmarkTSDBSealRecycled'; then
    echo "verify: BenchmarkTSDBChunkSeal or BenchmarkTSDBSealRecycled did not run" >&2
    exit 1
fi
if ! echo "$seal_out" | grep 'BenchmarkTSDBChunkSeal' | grep -Eq ' [0-2] allocs/op'; then
    echo "verify: tsdb chunk seal exceeds 2 allocs/op" >&2
    exit 1
fi
if ! echo "$seal_out" | grep 'BenchmarkTSDBSealRecycled' | grep -q ' 0 allocs/op'; then
    echo "verify: tsdb steady-state seal allocates" >&2
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
# A windowed /tsdb/partial call (Store.Partial, the fold a fed-coord
# query leg answers with too) folds every matching series into one
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

echo "==> control-room hub tick (allocations flat in series, <=4 per tick)"
# One steady-state flush of the tsdb channel writes its frame into one
# presized buffer, without reflection: TestHubTickAllocs requires equal
# allocations per tick at 64 and 8192 series and at most 4, and
# BenchmarkHubTickTSDB (8192 series, one `*` client) at most 4 allocs/op.
ht_out=$(go test -count=1 -run 'TestHubTickAllocs$' -bench 'BenchmarkHubTickTSDB$' -benchtime 50x -v ./internal/obs/ 2>&1) || {
    echo "$ht_out"
    echo "verify: hub tick allocations grow with series or exceed 4" >&2
    exit 1
}
echo "$ht_out" | grep -E '(allocs per tick|^BenchmarkHubTickTSDB|^--- (PASS|FAIL)|^ok)'
if ! echo "$ht_out" | grep -q -- '--- PASS: TestHubTickAllocs'; then
    echo "verify: TestHubTickAllocs did not run" >&2
    exit 1
fi
if ! echo "$ht_out" | grep '^BenchmarkHubTickTSDB' | grep -Eq ' [0-4] allocs/op'; then
    echo "verify: hub tick exceeds 4 allocs/op" >&2
    exit 1
fi

echo "==> SLA enforcement tick (<=100 allocs/op gate)"
# One A1 loop tick over 8 policies with a warm tsdb window: the loop is
# an iApp that reads slice status from its controller in-process. A
# loopback HTTP round trip per tick would bring back about 90 allocs/op.
sla_out=$(go test -run xxx -bench 'BenchmarkSLAEnforceTick$' -benchtime 100x ./internal/xapp/ 2>&1)
echo "$sla_out"
sla_allocs=$(echo "$sla_out" | awk '/^BenchmarkSLAEnforceTick/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }')
if [ -z "$sla_allocs" ]; then
    echo "verify: BenchmarkSLAEnforceTick did not run" >&2
    exit 1
fi
if [ "$sla_allocs" -gt 100 ]; then
    echo "verify: SLA enforcement tick exceeds 100 allocs/op" >&2
    exit 1
fi

echo "==> fuzz targets (3 s each)"
# Each target's checked-in corpus already runs in the tier-1 suite; this
# step mutates beyond it briefly. A failing input lands in the package's
# testdata/fuzz directory. Minimizing an input is capped at 100 runs: a
# kilobyte seed (FuzzSnapshotLoad's snapshots) takes the default 60 s to
# minimize, which would leave none of the 3 s for mutation.
for target in \
    'FuzzEncodeAppendIndication ./internal/e2ap/' \
    'FuzzE2APDecode ./internal/e2ap/' \
    'FuzzSMDecode ./internal/sm/' \
    'FuzzChunkRoundTrip ./internal/tsdb/' \
    'FuzzSnapshotLoad ./internal/tsdb/' \
    'FuzzPartialLeg ./internal/federation/' \
    'FuzzCoordControl ./internal/federation/' \
    'FuzzTSDBFrame ./internal/obs/' \
    'FuzzObsRoutes ./internal/obs/' \
    'FuzzWSFrame ./internal/obs/ws/' \
    'FuzzCtrlRoutes ./internal/ctrl/'; do
    set -- $target
    go test -run '^$' -fuzz "^$1\$" -fuzztime 3s -fuzzminimizetime 100x "$2"
done

echo "==> doc lint (markdown links, documented flags, BENCH_*.json names)"
sh scripts/doclint.sh

echo "==> every go test benchmark, one iteration"
# Proves each micro-benchmark still runs, without measuring anything.
mb_out=$(go test -run '^$' -bench . -benchtime 1x ./... 2>&1) || {
    echo "$mb_out"
    echo "verify: a benchmark failed" >&2
    exit 1
}
echo "$mb_out" | grep -c '^Benchmark' | sed 's/$/ benchmarks ran/'

echo "==> benchmark counts against BENCH_TRAJECTORY.json (1 s footprint)"
# Every BENCHMARK.json workload runs once at the trajectory file's check
# footprint: its counts: line must equal the committed one and its
# allocs_m stay within the committed slack. Neither reads a clock, so
# the step holds on a busy box; a change that moves one records the new
# value in the file.
chk=$(mktemp -d)
trap 'rm -rf "$chk"' EXIT INT TERM
go build -o "$chk/flexric-perfbench" ./bench
go run ./scripts/benchpair -check BENCH_TRAJECTORY.json -head "$chk/flexric-perfbench"

echo "verify: OK"
