GO ?= go

.PHONY: build test bench trace-demo chaos-demo controlroom-demo sla-demo federation-demo verify fmt clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Paper figure suite + hot-path microbenches with -benchmem; writes
# BENCH_pr10.json (name -> ns/op, B/op, allocs/op). Tunables:
# FIG_BENCHTIME, HOT_BENCHTIME, MICRO_BENCHTIME, OUT. See
# scripts/bench.sh and docs/PERFORMANCE.md.
bench:
	sh scripts/bench.sh

# End-to-end tracing demo: drives a monitoring control loop per encoding
# scheme and asserts the linked span tree (agent.indication ->
# transport.send / server.dispatch -> ctrl.monitor.store) over a live
# /traces endpoint.
trace-demo:
	$(GO) test -run TestTraceDemo -v ./internal/obs/

# End-to-end resilience demo: a monitoring loop survives a scripted
# fault plan (two connection drops, a listener blackout rejecting the
# first two redials) under both codecs — the agent reconnects with
# backoff, the server replays the subscription, the indication stream
# resumes, and the recovery counters appear on /snapshot.json.
chaos-demo:
	$(GO) test -run TestChaosDemo -v ./internal/experiments/

# End-to-end control-room demo: a headless Go WebSocket client dials a
# live monitoring loop's /stream/ws, subscribes to mac.* deltas (with
# backfill) plus the topology and span channels, receives batched delta
# frames under both codecs, and disconnects with a clean close
# handshake.
controlroom-demo:
	$(GO) test -run TestControlRoomDemo -v ./internal/experiments/

# End-to-end A1 policy demo: an SLA policy installed over the /a1/*
# northbound is enforced by the closed loop under both codecs — a load
# surge on the neighbouring slice breaks the target (VIOLATED), the
# loop shifts NVS capacity until it holds again (ENFORCED), and slice
# churn plus a scripted reconnect storm do not unseat the verdict.
sla-demo:
	$(GO) test -run TestSLADemo -v ./internal/experiments/

# End-to-end federation demo: a root controller federates 3 shard
# controllers splitting a 12-agent fleet by consistent hashing, under
# both codecs. One shard is killed mid-run — its agents re-home to the
# ring successor, the root's cross-shard subscription streams resume,
# and a federated windowed query over the pre-kill window returns the
# pre-kill baseline (the successor restored the dead shard's tsdb
# snapshot).
federation-demo:
	$(GO) test -run TestFederationDemo -v ./internal/experiments/

fmt:
	gofmt -w .

# Full pre-merge check: formatting, vet, both build modes (telemetry on
# and compiled out), race-detector test run. See scripts/verify.sh.
verify:
	sh scripts/verify.sh

# Remove what the benchmark leaves behind. bench/run.sh rebuilds only
# when a source file is newer than .bench_build's binary, so a binary
# left by another checkout or an older commit is reused silently: clean
# before measuring.
clean:
	rm -rf .bench_build bench/out
