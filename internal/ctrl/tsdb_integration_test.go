package ctrl_test

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/faultinject"
	"flexric/internal/obs"
	"flexric/internal/ran"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/transport"
	"flexric/internal/tsdb"
)

// TestMonitorTSDBIngest verifies that a monitor with an attached store
// fans decoded MAC/RLC/PDCP reports into per-UE, per-field series and
// that windowed aggregates over them carry real traffic.
func TestMonitorTSDBIngest(t *testing.T) {
	st := tsdb.New(tsdb.Config{Capacity: 4096})
	s, addr := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1, Decode: true, TSDB: st})
	b := startBS(t, addr, 1, sm.SchemeFB, 25)
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	if err := b.Cell.AddTraffic(1, &ran.Saturating{Flow: ran.FiveTuple{DstIP: 1}, RateBytesPerMS: 3000}); err != nil {
		t.Fatal(err)
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	if mon.TSDB() != st {
		t.Fatal("TSDB accessor")
	}

	macKey := tsdb.SeriesKey{Agent: uint32(id), Fn: sm.IDMACStats, UE: 1, Field: tsdb.FieldTxBits}
	rlcKey := tsdb.SeriesKey{Agent: uint32(id), Fn: sm.IDRLCStats, UE: 1, Field: tsdb.FieldTxBytes}
	pdcpKey := tsdb.SeriesKey{Agent: uint32(id), Fn: sm.IDPDCPStats, UE: 1, Field: tsdb.FieldTxBytes}
	await(t, "series with traffic on all layers", func() bool {
		for _, k := range []tsdb.SeriesKey{macKey, rlcKey, pdcpKey} {
			agg, ok := st.Aggregate(k, 0, math.MaxInt64)
			if !ok || agg.Count < 5 || agg.Max == 0 {
				return false
			}
		}
		return true
	})

	// The windowed view over the counter series must show positive flow:
	// tx_bytes is monotonic, so the rate over the whole window is > 0.
	agg, ok := st.Aggregate(rlcKey, 0, math.MaxInt64)
	if !ok || agg.RatePerS <= 0 {
		t.Fatalf("rlc tx_bytes rate = %+v", agg)
	}
	if agg.P99 < agg.P50 || agg.Max < agg.P99 {
		t.Fatalf("percentile ordering: %+v", agg)
	}
	// History, not a snapshot: LastK returns multiple distinct samples.
	samples := st.LastK(rlcKey, 10, nil)
	if len(samples) < 5 {
		t.Fatalf("only %d samples", len(samples))
	}
	if samples[0].TS >= samples[len(samples)-1].TS {
		t.Fatal("samples not in time order")
	}
	// MAC layer exposes the radio fields too.
	cqiKey := macKey
	cqiKey.Field = tsdb.FieldCQI
	if _, ok := st.Aggregate(cqiKey, 0, math.MaxInt64); !ok {
		t.Fatal("no cqi series")
	}
}

// TestMonitorRawModeTSDB covers the raw-payload archive path: payloads
// land in the store's pooled ring, stay decodable, and the latest-map
// path is bypassed entirely.
func TestMonitorRawModeTSDB(t *testing.T) {
	st := tsdb.New(tsdb.Config{RawCapacity: 16})
	s, addr := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1, Layers: ctrl.MonMAC, TSDB: st})
	startBS(t, addr, 1, sm.SchemeFB, 25)
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	await(t, "raw archive", func() bool { return st.RawCount(uint32(id), sm.IDMACStats) > 0 })
	raw := mon.Raw(id, sm.IDMACStats)
	if raw == nil {
		t.Fatal("Raw() must read from the archive")
	}
	if _, err := sm.DecodeMACReport(raw); err != nil {
		t.Fatalf("archived payload must stay decodable: %v", err)
	}
	if mon.MAC(id) != nil {
		t.Fatal("raw mode must not decode")
	}
	// Deep history accumulates, not just the latest payload.
	await(t, "ring fills", func() bool { return st.RawCount(uint32(id), sm.IDMACStats) == 16 })
}

// TestMonitorSeriesRetention: a disconnect evicts the agent's series
// when they are keyed by the reusable AgentID, and keeps them when
// SeriesAgent keys them by the collision-free node ID.
func TestMonitorSeriesRetention(t *testing.T) {
	byNode := func(info server.AgentInfo) uint32 { return uint32(info.NodeID.NodeID) }
	for _, tc := range []struct {
		name        string
		seriesAgent func(server.AgentInfo) uint32
		retained    bool
	}{
		{"agent_id_evicted", nil, false},
		{"node_id_retained", byNode, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tsdb.New(tsdb.Config{Capacity: 256})
			s, addr := startSrv(t)
			ctrl.NewMonitor(s, ctrl.MonitorConfig{
				Scheme: sm.SchemeFB, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true,
				TSDB: st, SeriesAgent: tc.seriesAgent,
			})
			// Hooks run in registration order: this one fires after the
			// monitor's has evicted (or kept) the series.
			var gone atomic.Bool
			s.OnAgentDisconnect(func(server.AgentInfo) { gone.Store(true) })
			b := startBS(t, addr, 42, sm.SchemeFB, 25)
			if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
				t.Fatal(err)
			}
			await(t, "agent", func() bool { return len(s.Agents()) == 1 })
			agentKey := uint32(s.Agents()[0].ID)
			if tc.seriesAgent != nil {
				agentKey = 42
			}
			k := tsdb.SeriesKey{Agent: agentKey, Fn: sm.IDMACStats, UE: 1, Field: tsdb.FieldCQI}
			await(t, "series", func() bool { return len(st.LastK(k, 1, nil)) == 1 })

			b.Agent.Close()
			await(t, "disconnect", gone.Load)
			if kept := len(st.LastK(k, 1, nil)) == 1; kept != tc.retained {
				t.Fatalf("series kept after disconnect = %v, want %v (%d series left)", kept, tc.retained, st.NumSeries())
			}
		})
	}
}

// fastRes mirrors the resilience test config: no keepalives (the test
// kills the transport directly), tight backoff, and a retention window
// the test controls.
func fastRes(retain time.Duration) *resilience.Config {
	return &resilience.Config{
		KeepaliveInterval: -1,
		DeadAfter:         -1,
		Backoff:           resilience.BackoffPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		RetainFor:         retain,
	}
}

// connCapture records the latest dialed transport so the test can kill
// the live connection without closing the agent.
type connCapture struct {
	mu sync.Mutex
	c  transport.Conn
}

func (cc *connCapture) wrap(c transport.Conn) transport.Conn {
	cc.mu.Lock()
	cc.c = c
	cc.mu.Unlock()
	return c
}

func (cc *connCapture) kill() {
	cc.mu.Lock()
	c := cc.c
	cc.mu.Unlock()
	c.Close()
}

// TestMonitorTSDBReconnectChurn is the state-leak acceptance test and
// the resilience acceptance run (`make chaos-demo`): a resilient agent
// whose transport is cut twice keeps its AgentID on reconnect, so its
// series survive and keep growing, its subscription is replayed and the
// indication stream resumes; only after the agent stays gone past the
// retention window does the disconnect hook fire and the store evict
// every series and raw ring of that agent. The cuts are the input: the
// test closing the live connection, or a scripted fault plan (two drops
// of the agent's connection, a listener blackout rejecting the first
// two redials) under each codec.
func TestMonitorTSDBReconnectChurn(t *testing.T) {
	o, err := obs.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	for _, tc := range []struct {
		name     string
		e2       e2ap.Scheme
		sm       sm.Scheme
		scripted bool // fault plans cut the connection, not the test
	}{
		{"kill", e2ap.SchemeFB, sm.SchemeFB, false},
		{"faultplan_asn", e2ap.SchemeASN, sm.SchemeASN, true},
		{"faultplan_fb", e2ap.SchemeFB, sm.SchemeFB, true},
	} {
		t.Run(tc.name, func(t *testing.T) { reconnectChurn(t, o.Addr(), tc.e2, tc.sm, tc.scripted) })
	}
}

func reconnectChurn(t *testing.T, obsAddr string, e2s e2ap.Scheme, sms sm.Scheme, scripted bool) {
	scfg := server.Config{Scheme: e2s, Transport: transport.KindSCTPish, Resilience: fastRes(250 * time.Millisecond)}
	cap := &connCapture{}
	wrapConn := cap.wrap
	var connPlan, lisPlan *faultinject.Plan
	if scripted {
		// Two cuts of the agent's connection, each after 120 frames;
		// after the first accept, the listener rejects two redials.
		var err error
		if connPlan, err = faultinject.Parse("drop@120,drop@120"); err != nil {
			t.Fatal(err)
		}
		if lisPlan, err = faultinject.Parse("blackout@1=2"); err != nil {
			t.Fatal(err)
		}
		wrapConn, scfg.WrapListener = connPlan.WrapConn, lisPlan.WrapListener
	}
	before := readSnapshot(t, obsAddr)

	st := tsdb.New(tsdb.Config{Capacity: 1024})
	s := server.New(scfg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sms, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true, TSDB: st})
	var reconnects atomic.Int32
	s.OnAgentReconnect(func(server.AgentInfo) { reconnects.Add(1) })

	b, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: sms, Controller: addr,
		Agent: agent.Config{
			NodeID: station.Node(e2ap.NodeENB, 7), Scheme: e2s,
			Transport: transport.KindSCTPish, Resilience: fastRes(0), WrapConn: wrapConn,
		},
		SMs: []uint16{sm.IDMACStats},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	runSlots(t, b)

	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	k := tsdb.SeriesKey{Agent: uint32(id), Fn: sm.IDMACStats, UE: 1, Field: tsdb.FieldCQI}
	await(t, "series before churn", func() bool {
		agg, ok := st.Aggregate(k, 0, math.MaxInt64)
		return ok && agg.Count > 10
	})
	subsBefore := readSnapshot(t, obsAddr).Children["server"].Gauges["subscriptions_active"]

	// Churn: the transport dies twice; the supervisor re-associates
	// under the same AgentID each time and history must survive.
	for round := int32(1); round <= 2; round++ {
		if !scripted {
			cap.kill()
		}
		await(t, "reconnect", func() bool { return reconnects.Load() >= round })
		if len(s.Agents()) != 1 || s.Agents()[0].ID != id {
			t.Fatalf("round %d: AgentID not reused", round)
		}
		if st.NumSeries() == 0 {
			t.Fatalf("round %d: series evicted across reconnect", round)
		}
		agg, _ := st.Aggregate(k, 0, math.MaxInt64)
		await(t, "series grows after reconnect", func() bool {
			now, ok := st.Aggregate(k, 0, math.MaxInt64)
			return ok && now.LastTS > agg.LastTS
		})
	}
	// The indication stream advances on the replayed subscription.
	n0, _ := mon.Counters()
	await(t, "indication stream resumes", func() bool {
		n, _ := mon.Counters()
		return n >= n0+50
	})
	if scripted {
		if n := connPlan.DropsFired(); n != 2 {
			t.Errorf("drops fired = %d, want 2", n)
		}
		if n := lisPlan.BlackoutRejects(); n != 2 {
			t.Errorf("blackout rejects = %d, want 2", n)
		}
	}

	// The recovery is observable from the outside, on /snapshot.json.
	after := readSnapshot(t, obsAddr)
	delta := func(layer, name string) uint64 {
		return after.Children[layer].Counters[name] - before.Children[layer].Counters[name]
	}
	if n := delta("server", "subs_replayed"); n < 2 {
		t.Errorf("subscriptions replayed = %d, want >= 2 (one per reconnect)", n)
	}
	if n := after.Children["server"].Gauges["subscriptions_active"]; n != subsBefore {
		t.Errorf("subscriptions lost: %d before the cuts, %d after", subsBefore, n)
	}
	if delta("agent", "reconnects") == 0 {
		t.Error("agent.reconnects did not move on /snapshot.json")
	}
	if delta("server", "agent_reconnects") == 0 {
		t.Error("server.agent_reconnects did not move on /snapshot.json")
	}

	// Final departure: stop the agent for good. Retention expires, the
	// disconnect hook fires, and every series of the agent is evicted.
	b.Close()
	await(t, "eviction after retention", func() bool { return st.NumSeries() == 0 })
}

// snapshotJSON is the part of /snapshot.json the churn test reads.
type snapshotJSON struct {
	Counters map[string]uint64       `json:"counters"`
	Gauges   map[string]int64        `json:"gauges"`
	Children map[string]snapshotJSON `json:"children"`
}

func readSnapshot(t *testing.T, obsAddr string) snapshotJSON {
	t.Helper()
	resp, err := http.Get("http://" + obsAddr + "/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap snapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/snapshot.json: %v", err)
	}
	return snap
}

// TestSlicingStatsAgg exercises the windowed-aggregate northbound: the
// slicing controller's /stats/agg endpoint serves tsdb.Agg JSON from
// its internal store.
func TestSlicingStatsAgg(t *testing.T) {
	s, addr := startSrv(t)
	sc, err := ctrl.NewSlicingController(s, sm.SchemeASN, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	b := startBS(t, addr, 1, sm.SchemeASN, 25)
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	if err := b.Cell.AddTraffic(1, &ran.Saturating{Flow: ran.FiveTuple{DstIP: 1}, RateBytesPerMS: 3000}); err != nil {
		t.Fatal(err)
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	base := "http://" + sc.Addr()

	var agg tsdb.Agg
	await(t, "windowed aggregate", func() bool {
		resp, err := http.Get(base + "/stats/agg?agent=0&ue=1&field=throughput_bps&window_ms=10000")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
			return false
		}
		return agg.Count >= 5 && agg.Max > 0
	})
	if agg.Mean <= 0 || agg.P95 < agg.P50 {
		t.Fatalf("aggregate shape: %+v", agg)
	}

	// Error paths.
	for _, url := range []string{
		base + "/stats/agg?ue=1&field=cqi",                     // missing agent
		base + "/stats/agg?agent=0&ue=1&field=bogus",           // unknown field
		base + "/stats/agg?agent=0&ue=-1&field=cqi",            // bad ue
		base + "/stats/agg?agent=0&ue=1&field=cqi&window_ms=0", // bad window
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s", url, resp.Status)
		}
	}
	resp, err := http.Get(base + "/stats/agg?agent=9&ue=1&field=cqi")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown agent: %s", resp.Status)
	}
}

// TestMonitorTSDBCompressed runs the live ingest pipeline against a
// store in chunk-compression mode: a tiny write head forces seals at
// experiment timescale, and windowed aggregates spanning sealed chunks
// must stay coherent (monotone counters keep a positive rate, counts
// keep growing) while the store reports a real compression ratio.
func TestMonitorTSDBCompressed(t *testing.T) {
	st := tsdb.New(tsdb.Config{Capacity: 64, Compress: true})
	s, addr := startSrv(t)
	ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true, TSDB: st})
	b := startBS(t, addr, 1, sm.SchemeFB, 25)
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	if err := b.Cell.AddTraffic(1, &ran.Saturating{Flow: ran.FiveTuple{DstIP: 1}, RateBytesPerMS: 3000}); err != nil {
		t.Fatal(err)
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	k := tsdb.SeriesKey{Agent: uint32(id), Fn: sm.IDMACStats, UE: 1, Field: tsdb.FieldTxBits}

	// Enough reports to overflow the 64-sample head repeatedly.
	await(t, "chunks seal under live ingest", func() bool {
		return st.Stats().Chunks > 0
	})
	await(t, "history spans head+chunks", func() bool {
		agg, ok := st.Aggregate(k, 0, math.MaxInt64)
		return ok && agg.Count > 64
	})
	agg, _ := st.Aggregate(k, 0, math.MaxInt64)
	if agg.RatePerS <= 0 {
		t.Fatalf("tx_bits rate over compressed history: %+v", agg)
	}
	// LastK deeper than the write head decompresses chunks.
	samples := st.LastK(k, 200, nil)
	if len(samples) <= 64 {
		t.Fatalf("LastK returned only %d samples", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].TS < samples[i-1].TS {
			t.Fatal("decompressed samples out of order")
		}
	}
	stats := st.Stats()
	if stats.BytesPerSample <= 0 || stats.BytesPerSample >= 16 {
		t.Fatalf("bytes/sample = %v", stats.BytesPerSample)
	}
}
