package ctrl_test

import (
	"runtime"
	"testing"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/trace"
	"flexric/internal/transport"
	"flexric/internal/tsdb"
)

// TestIndicationPathAllocs is the system-level companion of
// BenchmarkIndicationFastPath. That gate feeds a pre-encoded payload
// over the FB codec and the pipe transport; this one runs the whole
// monitoring loop the way a deployment does — the real MAC/RLC/PDCP SMs
// building per-shard reports from a sharded cell, the agent batching
// them, loopback TCP, the server's envelope dispatch, the monitor
// archiving raw payloads into the store — under both encoding schemes,
// with tracing unsampled, and bounds the process-wide mallocs per
// indication received. scripts/verify.sh runs it by name.
func TestIndicationPathAllocs(t *testing.T) {
	const (
		shards  = 8
		ues     = 16
		warmTTI = 300
		runTTI  = 1000
		perTTI  = 3 * shards // MAC, RLC and PDCP report every shard
		// Mallocs is process-wide, so the runtime's own background
		// allocations and the cell's traffic model land in the ratio
		// too; the path itself contributes nothing in steady state.
		maxAllocsPerInd = 0.25
	)
	if trace.SampleEvery() != 0 {
		t.Fatal("trace sampling enabled; the gate measures the unsampled configuration")
	}
	for _, sc := range []struct {
		name string
		e2   e2ap.Scheme
		sm   sm.Scheme
	}{
		{"asn", e2ap.SchemeASN, sm.SchemeASN},
		{"fb", e2ap.SchemeFB, sm.SchemeFB},
	} {
		t.Run(sc.name, func(t *testing.T) {
			srv := server.New(server.Config{Scheme: sc.e2, Transport: transport.KindSCTPish})
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{
				Scheme: sc.sm, PeriodMS: 1, Decode: false, TSDB: tsdb.New(tsdb.Config{}),
			})

			cell, err := ran.NewCellWithOptions(ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25},
				ran.CellOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= ues; i++ {
				u, err := cell.Attach(uint16(i), "", "208.95", 20)
				if err != nil {
					t.Fatal(err)
				}
				u.AddSource(&ran.CBR{
					Flow: ran.FiveTuple{DstIP: uint32(i), DstPort: 5001, Proto: ran.ProtoUDP},
					Size: 172, IntervalMS: 10, StartMS: int64(i % 10),
				})
			}
			a := agent.New(agent.Config{
				NodeID:    e2ap.GlobalE2NodeID{PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: e2ap.NodeENB, NodeID: 1},
				Scheme:    sc.e2,
				Transport: transport.KindSCTPish,
			})
			stats := []*sm.StatsFunction{
				sm.NewMACStats(cell, sc.sm, a),
				sm.NewRLCStats(cell, sc.sm, a),
				sm.NewPDCPStats(cell, sc.sm, a),
			}
			var fns []agent.RANFunction
			for _, fn := range stats {
				if err := a.RegisterFunction(fn); err != nil {
					t.Fatal(err)
				}
				fns = append(fns, fn)
			}
			if _, err := a.Connect(addr); err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			await(t, "monitor subscriptions admitted", func() bool {
				for _, fn := range stats {
					if fn.Subscriptions() != 1 {
						return false
					}
				}
				return true
			})

			// run steps the cell n TTIs, reporting after each, and waits
			// until the monitor has archived every indication sent.
			var want uint64
			run := func(n int) {
				for i := 0; i < n; i++ {
					cell.Step(1)
					sm.TickAll(fns, cell.Now())
				}
				want += uint64(n) * perTTI
				await(t, "indications archived", func() bool {
					got, _ := mon.Counters()
					return got >= want
				})
			}
			run(warmTTI)

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			run(runTTI)
			runtime.ReadMemStats(&after)

			if got, _ := mon.Counters(); got != want {
				t.Fatalf("monitor saw %d indications, want %d", got, want)
			}
			perInd := float64(after.Mallocs-before.Mallocs) / float64(runTTI*perTTI)
			t.Logf("%s: %.3f mallocs per indication over %d indications", sc.name, perInd, runTTI*perTTI)
			if perInd > maxAllocsPerInd {
				t.Errorf("%s: %.3f mallocs per indication, gate is %.2f", sc.name, perInd, maxAllocsPerInd)
			}
		})
	}
}
