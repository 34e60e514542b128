package ctrl_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/tsdb"
)

// startShardedBS is startBS with a multi-shard cell, so the monitoring
// SMs emit one report payload per shard. The station package builds
// single-shard cells only, so this station is put together by hand.
func startShardedBS(t *testing.T, addr string, nodeID uint64, scheme sm.Scheme, shards int) *station.Station {
	t.Helper()
	cell, err := ran.NewCellWithOptions(ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25},
		ran.CellOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	a := agent.New(agent.Config{NodeID: station.Node(e2ap.NodeENB, nodeID)})
	b := &station.Station{Cell: cell, Agent: a, Fns: []agent.RANFunction{
		sm.NewMACStats(cell, scheme, a),
		sm.NewRLCStats(cell, scheme, a),
		sm.NewPDCPStats(cell, scheme, a),
	}}
	for _, fn := range b.Fns {
		if err := a.RegisterFunction(fn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Connect(addr); err != nil {
		t.Fatal(err)
	}
	runSlots(t, b)
	return b
}

// TestMonitorMergesShardReports: a 4-shard cell reports each layer as
// one payload per shard; the monitor's latest-report view must merge
// the shards of one cell time back into the full UE list, through the
// ingest pipeline path (IngestWorkers > 0).
func TestMonitorMergesShardReports(t *testing.T) {
	s, addr := startSrv(t)
	db := tsdb.New(tsdb.Config{Capacity: 256})
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{
		Scheme: sm.SchemeFB, PeriodMS: 1, Decode: true,
		TSDB: db, IngestWorkers: 2,
	})
	// Shutdown order matters with IngestWorkers: the server must stop
	// delivering before the pipes close. Both Closes are idempotent, so
	// the startSrv cleanup's second s.Close is a no-op.
	defer func() {
		s.Close()
		mon.Close()
	}()
	b := startShardedBS(t, addr, 1, sm.SchemeFB, 4)

	const nUE = 8
	for i := 1; i <= nUE; i++ {
		if _, err := b.Cell.Attach(uint16(i), "", "208.95", 20); err != nil {
			t.Fatal(err)
		}
		if err := b.Cell.AddTraffic(uint16(i), &ran.Saturating{
			Flow: ran.FiveTuple{DstIP: uint32(i)}, RateBytesPerMS: 500}); err != nil {
			t.Fatal(err)
		}
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID

	fullReport := func(rep *sm.MACReport) bool {
		if rep == nil || len(rep.UEs) != nUE {
			return false
		}
		seen := map[uint16]bool{}
		for _, u := range rep.UEs {
			if seen[u.RNTI] {
				return false // duplicate: merged across cell times
			}
			seen[u.RNTI] = true
		}
		return true
	}
	await(t, "merged MAC report with all UEs exactly once", func() bool {
		return fullReport(mon.MAC(id))
	})
	await(t, "merged RLC report", func() bool {
		rep := mon.RLC(id)
		return rep != nil && len(rep.UEs) == nUE
	})
	await(t, "merged PDCP report", func() bool {
		rep := mon.PDCP(id)
		return rep != nil && len(rep.UEs) == nUE
	})
	// The pipeline must have ingested every shard's UEs into the store
	// exactly once per report period: every UE has a series.
	await(t, "tsdb series for all UEs", func() bool {
		for i := 1; i <= nUE; i++ {
			k := tsdb.SeriesKey{Agent: uint32(id), Fn: sm.IDMACStats, UE: uint16(i), Field: tsdb.FieldTxBits}
			if len(db.LastK(k, 1, nil)) == 0 {
				return false
			}
		}
		return true
	})
}

// TestMonitorEmptyCellHeartbeat: a cell with no attached UEs still
// reports once per period (the empty heartbeat payload), so liveness
// monitoring keeps working.
func TestMonitorEmptyCellHeartbeat(t *testing.T) {
	s, addr := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1, Decode: true})
	startShardedBS(t, addr, 1, sm.SchemeFB, 4)
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	await(t, "empty MAC heartbeat", func() bool {
		rep := mon.MAC(id)
		return rep != nil && len(rep.UEs) == 0
	})
}

// TestMonitorPipelineForgetsAfterQueued: with an ingest pipeline, a
// disconnect forgets the agent only after its queued reports are
// ingested, so a report still in the pipe cannot bring back the series
// or latest report of an agent that left.
func TestMonitorPipelineForgetsAfterQueued(t *testing.T) {
	s, addr := startSrv(t)
	db := tsdb.New(tsdb.Config{Capacity: 64})
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{
		Scheme: sm.SchemeFB, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true,
		TSDB: db, IngestWorkers: 1,
	})
	defer func() {
		s.Close()
		mon.Close()
	}()
	// The first appended row stalls the one worker until release.
	stalled, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	db.SetAppendHook(func(tsdb.SeriesKey, int64, float64) {
		once.Do(func() {
			close(stalled)
			<-release
		})
	})
	var gone atomic.Bool
	s.OnAgentDisconnect(func(server.AgentInfo) { gone.Store(true) })
	b := startIdleBS(t, addr, 1, sm.SchemeFB, 25)
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	await(t, "worker stalled on a report", func() bool {
		select {
		case <-stalled:
			return true
		default:
			b.Step(1)
			time.Sleep(time.Millisecond)
			return false
		}
	})

	b.Close()
	await(t, "disconnect", gone.Load)
	close(release)
	s.Close()
	mon.Close() // drains the pipe
	if n := db.NumSeries(); n != 0 {
		t.Fatalf("%d series of a departed agent", n)
	}
	if mon.MAC(id) != nil {
		t.Fatal("latest MAC report of a departed agent")
	}
}
