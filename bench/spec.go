package main

import (
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/sm"
	"flexric/internal/tsdb"
)

// The benchmark's contract: workload names and sizes, metric names and
// units. BENCHMARK.json repeats the names; the smoke test fails when
// the two drift apart. Sizes are frozen — every workload does the same
// amount of work for a given -seconds, so counts repeat exactly and
// only clocks vary.

// metricDef names one reported number.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run. Every workload emits
// every one of them; none is a pacing constant and none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_ms_p50", "ms"},
	{"cpu_s", "s"},
	{"rate_per_s", "1/s"},
	{"allocs_m", "1e6"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the metrics of a traced run, layer = module name. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"ran.step_us_per_tti", "us"},
	{"ran.stepper_share_pct", "%"},
	{"sm.encode_us_per_ksample", "us"},
	{"sm.decode_us_per_ksample", "us"},
	{"sm.report_b_per_sample", "B"},
	{"agent.send_us_per_ind", "us"},
	{"agent.batch_inds_per_flush", "count"},
	{"e2ap.encode_us_per_ind", "us"},
	{"e2ap.decode_us_per_ind", "us"},
	{"e2ap.wire_b_per_ind", "B"},
	{"transport.send_us_per_ind", "us"},
	{"transport.echo_us_p50", "us"},
	{"bufpool.get_put_ns", "ns"},
	{"server.dispatch_us_p50", "us"},
	{"server.indications", "count"},
	{"server.indications_dropped", "count"},
	{"server.control_us_p50", "us"},
	{"ctrl.monitor.store_us_p50", "us"},
	{"ctrl.monitor.wait_ms_p50", "ms"},
	{"ctrl.slicing.rest_us_p50", "us"},
	{"tsdb.append_ns_per_sample", "ns"},
	{"tsdb.seal_us_p50", "us"},
	{"tsdb.chunk_b_per_sample", "B"},
	{"tsdb.window_us_p50", "us"},
	{"tsdb.series", "count"},
	{"tsdb.heap_b_per_series", "B"},
	{"obs.hub.fanout_ms_p50", "ms"},
	{"obs.ws.frame_kb_p50", "KB"},
	{"obs.ws.delivered_pct", "%"},
	{"obs.stream.ring_dropped", "count"},
	{"obs.stream.dropped_frames", "count"},
	{"obs.http.query_ms_p50", "ms"},
	{"federation.fanout_ms_p50", "ms"},
	{"federation.shard_partial_ms_p50", "ms"},
	{"federation.shard_partial_ms_max", "ms"},
	{"federation.merge_us_p50", "us"},
	{"federation.root_fresh_ms_p50", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"gen.rounds_in_flight_max", "count"},
	{"loop.lat_ms_hi", "ms"},
	{"loop.fresh_tsdb_ms_p50", "ms"},
	{"loop.fresh_tsdb_ms_hi", "ms"},
	{"loop.fresh_ws_ms_p50", "ms"},
	{"loop.fresh_ws_ms_hi", "ms"},
	{"loop.ctrl_rtt_ms_p50", "ms"},
	{"loop.ctrl_rtt_ms_hi", "ms"},
	{"loop.query_ms_hi", "ms"},
	{"loop.reconcile_pct", "%"},
	{"loop.trace_overhead_pct", "%"},
	{"loop.fail_pct", "%"},
	{"go.gc_cycles", "count"},
	{"go.alloc_mb", "MB"},
}

// workloadDef is one entry of the workload table.
type workloadDef struct {
	name, why string
	run       func(e *env) (*result, error)
}

var workloads = []workloadDef{
	{"mon_live", "open loop at 1 ms/TTI with a WebSocket subscriber: freshness to an xApp and a dashboard without queueing artefacts",
		func(e *env) (*result, error) { return runMonitor(e, monLive) }},
	{"ingest_bulk", "few big reports into the compressing store: SM decode, monitor ingest and tsdb append do almost all the work",
		func(e *env) (*result, error) { return runMonitor(e, ingestBulk) }},
	{"ind_small", "many tiny ASN.1 indications archived raw: per-message cost in sm, agent, e2ap, transport and server dominates",
		func(e *env) (*result, error) { return runMonitor(e, indSmall) }},
	{"ctrl_loop", "one REST caller driving E2 control round trips: request/reply use of e2ap, transport and server",
		runCtrlLoop},
	{"fed_query", "federated window queries beside paced ingest on three shards: the only path through federation, reads beside writes",
		runFedQuery},
}

// monSpec sizes a monitoring workload (mon_live, ingest_bulk,
// ind_small): agents stream per-shard MAC/RLC/PDCP reports into one
// controller's monitor and store.
type monSpec struct {
	name          string
	agents, ues   int
	shards        int
	periodTTI     int
	e2            e2ap.Scheme
	sm            sm.Scheme
	decode        bool
	tsdb          tsdb.Config
	ingestWorkers int
	// stream attaches the control-room hub and one WebSocket subscriber
	// on every series for the paced phase.
	stream bool
	// ttiWall is the wall time per TTI of the paced phase. The stepper
	// is due every burst TTIs and steps that many at once; a burst's
	// latency is that of its last round.
	ttiWall time.Duration
	burst   int
	// warmRounds are stepped closed-loop during set-up.
	warmRounds int
	// satRoundsPerS × the saturated phase's share of -seconds is the
	// fixed number of rounds the saturated phase pushes through.
	satRoundsPerS float64
	// inflight bounds the rounds stepped but not yet visible in the
	// saturated phase. Visibility is polled at the box's timer
	// granularity (about 1 ms), so the window holds several ms of work:
	// the stepper must not idle because detection lags.
	inflight int
}

var layersAll = []uint16{sm.IDMACStats, sm.IDRLCStats, sm.IDPDCPStats}

// samplesPerUE is the number of tsdb samples one UE contributes to one
// round of MAC+RLC+PDCP reports (5 + 9 + 2 fields).
const samplesPerUE = 16

var monLive = monSpec{
	name: "mon_live", agents: 2, ues: 256, shards: 8, periodTTI: 41,
	e2: e2ap.SchemeFB, sm: sm.SchemeFB, decode: true,
	tsdb:          tsdb.Config{Capacity: 256},
	ingestWorkers: 2, stream: true,
	ttiWall: time.Millisecond, burst: 1, warmRounds: 300,
	satRoundsPerS: 225, inflight: 4,
}

// The compress-mode caps are set because the defaults pre-allocate
// about 196 KB of tier rings per series, 14 GB at this footprint. A
// write head of 32 samples makes every series seal a chunk during
// set-up and fold chunks into the tiers during the measured window.
var ingestBulk = monSpec{
	name: "ingest_bulk", agents: 2, ues: 2048, shards: 8, periodTTI: 1,
	e2: e2ap.SchemeFB, sm: sm.SchemeFB, decode: true,
	tsdb: tsdb.Config{Capacity: 32, Compress: true,
		MaxChunks: 4, Tier1Cap: 64, Tier2Cap: 16},
	ingestWorkers: 2,
	ttiWall:       50 * time.Millisecond, burst: 1, warmRounds: 34,
	satRoundsPerS: 30, inflight: 2,
}

// A single tiny round is archived in a fraction of the box's timer
// granularity, so the paced phase offers ind_small's 96 000
// indications/s in bursts of 50 TTIs: what is timed is how long a
// 50 ms backlog of 4 800 tiny messages takes to drain.
var indSmall = monSpec{
	name: "ind_small", agents: 2, ues: 32, shards: 16, periodTTI: 1,
	e2: e2ap.SchemeASN, sm: sm.SchemeASN, decode: false,
	tsdb:    tsdb.Config{},
	ttiWall: time.Millisecond, burst: 50, warmRounds: 4000,
	satRoundsPerS: 5400, inflight: 64,
}

// smoke shrinks a spec to a footprint that runs in well under a second.
func (s monSpec) smoke() monSpec {
	s.ues = 4 * s.shards
	if s.ues > 64 {
		s.ues = 64
	}
	s.warmRounds = 4
	s.satRoundsPerS = 200
	if s.ttiWall > time.Millisecond {
		s.ttiWall = 5 * time.Millisecond
	}
	if s.burst > 1 {
		s.burst = 10
	}
	return s
}

// pacedShare is the part of -seconds the open-loop phase takes; the
// closed-loop phase is sized to take the rest.
const pacedShare = 0.5
