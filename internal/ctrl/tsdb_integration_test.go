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

// TestMonitorTSDBReconnectChurn is the state-leak acceptance test: a
// resilient agent whose transport dies keeps its AgentID on reconnect,
// so its series survive and keep growing; only after the agent stays
// gone past the retention window does the disconnect hook fire and the
// store evict every series and raw ring of that agent.
func TestMonitorTSDBReconnectChurn(t *testing.T) {
	st := tsdb.New(tsdb.Config{Capacity: 1024})
	s := server.New(server.Config{
		Scheme:     e2ap.SchemeFB,
		Transport:  transport.KindSCTPish,
		Resilience: fastRes(250 * time.Millisecond),
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true, TSDB: st})
	var reconnects atomic.Int32
	s.OnAgentReconnect(func(server.AgentInfo) { reconnects.Add(1) })

	cap := &connCapture{}
	b, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: sm.SchemeFB, Controller: addr,
		Agent: agent.Config{
			NodeID: station.Node(e2ap.NodeENB, 7), Scheme: e2ap.SchemeFB,
			Transport: transport.KindSCTPish, Resilience: fastRes(0), WrapConn: cap.wrap,
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

	// Churn: kill the transport twice; the supervisor re-associates
	// under the same AgentID each time and history must survive.
	for round := 0; round < 2; round++ {
		before := reconnects.Load()
		cap.kill()
		await(t, "reconnect", func() bool { return reconnects.Load() > before })
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

	// Final departure: stop the agent for good. Retention expires, the
	// disconnect hook fires, and every series of the agent is evicted.
	b.Close()
	await(t, "eviction after retention", func() bool { return st.NumSeries() == 0 })
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
