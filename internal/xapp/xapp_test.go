package xapp_test

import (
	"math"
	"testing"
	"time"

	"flexric/internal/a1"
	"flexric/internal/agent"
	"flexric/internal/broker"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/telemetry"
	"flexric/internal/xapp"
)

// This test drives the full §6.1.1 story end to end: VoIP + Cubic share
// a bearer, the TC xApp watches sojourn via the broker, applies its
// three-action remedy over REST, and the cell's TC state changes.
func TestTCXAppAppliesRemedy(t *testing.T) {
	brk, brkAddr, err := broker.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	srv := server.New(server.Config{})
	e2Addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 10, Layers: ctrl.MonRLC})
	tcc, err := ctrl.NewTCController(mon, brkAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcc.Close()

	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: sm.SchemeFB, Controller: e2Addr,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1)},
		SMs:   []uint16{sm.IDRLCStats, sm.IDTrafficCtrl},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()

	if _, err := bs.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	voip := &ran.CBR{Flow: ran.FiveTuple{DstIP: 1, DstPort: 5060, Proto: ran.ProtoUDP}, Size: 172, IntervalMS: 20, ReturnDelayMS: 10}
	if err := bs.Cell.AddTraffic(1, voip); err != nil {
		t.Fatal(err)
	}
	if err := bs.Cell.AddTraffic(1, &ran.CubicFlow{Flow: ran.FiveTuple{DstIP: 1, DstPort: 5001, Proto: ran.ProtoTCP}}); err != nil {
		t.Fatal(err)
	}

	x, err := xapp.NewTCXApp("http://"+tcc.Addr(), brkAddr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x.FilterDstPort = 5060
	x.FilterProto = 17
	runDone := make(chan error, 1)
	go func() { runDone <- x.Run() }()

	// Drive the slot loop until the remedy lands (bufferbloat builds up
	// within a few simulated seconds).
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			bs.Step(1)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("xapp run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("xApp never applied the remedy")
	}
	close(stop)
	x.Close()
	if !x.Applied() {
		t.Fatal("Applied() must report true")
	}
	// The remedy was a windowed decision: the trailing sojourn window
	// must hold enough samples with a p95 beyond the limit.
	agg, ok := x.SojournAgg()
	if !ok || agg.Count < x.MinWindowSamples {
		t.Fatalf("windowed sojourn aggregate too thin: %+v (ok=%v)", agg, ok)
	}
	if agg.P95 <= float64(x.SojournLimitMS) {
		t.Fatalf("remedy fired below the windowed limit: %+v", agg)
	}
	var st ran.TCStats
	if err := bs.Cell.WithUE(1, func(u *ran.UE) error { st = u.TC().Stats(); return nil }); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "active" || len(st.Queues) != 2 || st.Filters != 1 || st.Pacer != ran.PacerBDP {
		t.Fatalf("remedy not applied: %+v", st)
	}
}

// startSliceRig starts an E2 server, a slicing controller and a 106 RB
// NR station (MAC and SC SMs, agent 0) with UE 1 attached, and steps
// the cell's slots until the test ends.
func startSliceRig(t *testing.T) *ctrl.SlicingController {
	t.Helper()
	srv := server.New(server.Config{})
	e2Addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sc, err := ctrl.NewSlicingController(srv, sm.SchemeASN, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })

	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT5G, NumRB: 106}, SM: sm.SchemeASN, Controller: e2Addr,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeGNB, 2)},
		SMs:   []uint16{sm.IDMACStats, sm.IDSliceCtrl},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bs.Close)
	// The agent's setup completes before the server lists it; a control
	// in between fails with "no agent 0".
	for deadline := time.Now().Add(5 * time.Second); len(srv.Agents()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("agent not listed by the server")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := bs.Cell.Attach(1, "", "208.95", 20); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			bs.Step(1)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
	return sc
}

func TestSliceXApp(t *testing.T) {
	sc := startSliceRig(t)
	x := xapp.NewSliceXApp("http://"+sc.Addr(), 0)
	if err := x.Deploy(ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 1, Kind: "capacity", Capacity: 0.5},
			{ID: 2, Kind: "capacity", Capacity: 0.5},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := x.Associate(1, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := x.Status(); err == nil && st.Algo == "nvs" && len(st.Slices) == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := x.Status()
	if err != nil || st.Algo != "nvs" {
		t.Fatalf("status: %+v %v", st, err)
	}
	deadline = time.Now().Add(10 * time.Second)
	gotStats := false
	for time.Now().Before(deadline) {
		if rep, err := x.Stats(); err == nil && len(rep.UEs) == 1 {
			gotStats = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !gotStats {
		t.Fatal("no stats via xApp")
	}
	// The windowed view: aggregated CQI over the trailing window, served
	// from the controller's time-series store instead of the latest
	// report. The attached UE reports a constant CQI, so the windowed
	// percentiles collapse onto it.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		agg, err := x.AggStats(1, "cqi", 5000)
		if err == nil && agg.Count >= 5 {
			if agg.Max <= 0 || agg.P95 < agg.P50 || agg.Mean > agg.Max {
				t.Fatalf("aggregate shape: %+v", agg)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no windowed aggregate via xApp")
}

// TestSLAXAppInProcess closes the A1 loop against a real slicing
// controller and agent: a violated throughput policy is remedied
// through SlicingController.Apply, the agent's next slice status
// carries the shifted share, and no request reaches the REST
// northbound while the loop runs.
func TestSLAXAppInProcess(t *testing.T) {
	sc := startSliceRig(t)
	// Slices 0.3 / 0.7 with UE 1 in slice 1, set up in-process too.
	layout, err := ctrl.SliceControlFromJSON(&ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 1, Kind: "capacity", Capacity: 0.3, UESched: "pf"},
			{ID: 2, Kind: "capacity", Capacity: 0.7, UESched: "pf"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Apply(0, layout); err != nil {
		t.Fatal(err)
	}
	if err := sc.Apply(0, &sm.SliceControl{Op: sm.OpAssociateUE, RNTI: 1, SliceID: 1}); err != nil {
		t.Fatal(err)
	}
	// capacityQ is slice 1's share in the agent's latest status, or 0.
	capacityQ := func() uint32 {
		st := sc.SliceStatus(0)
		if st == nil || st.Algo != "nvs" || len(st.UEs) != 1 {
			return 0
		}
		for _, s := range st.Slices {
			if s.ID == 1 {
				return s.CapacityQ
			}
		}
		return 0
	}
	for deadline := time.Now().Add(10 * time.Second); capacityQ() != 300_000; {
		if time.Now().After(deadline) {
			t.Fatalf("slice layout not reported: %+v", sc.SliceStatus(0))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No cell carries 10 Gbps: the target is violated once the window
	// holds enough samples.
	pols := a1.NewStore()
	if _, err := pols.Create(a1.Policy{
		ID: "sla-slice1", TypeID: a1.TypeSliceSLA, Agent: 0, WindowMS: 1000,
		Targets: []a1.SliceTarget{{SliceID: 1, MinThroughputMbps: 10_000}},
	}); err != nil {
		t.Fatal(err)
	}
	x := xapp.NewSLAXApp(xapp.SLAConfig{Policies: pols, TSDB: sc.TSDB(), Slicing: sc, HysteresisTicks: 2})

	requests := telemetry.NewCounter("ctrl.http.requests.slices")
	before := requests.Load()
	var d xapp.PolicyDecision
	for deadline := time.Now().Add(10 * time.Second); !d.Remedied; {
		if time.Now().After(deadline) {
			t.Fatalf("no remedy: %+v", d)
		}
		d = x.EnforceOnce()[0]
		time.Sleep(5 * time.Millisecond)
	}
	if d.Status != a1.StatusViolated || math.Abs(d.NewShares[1]-0.4) > 1e-9 {
		t.Fatalf("decision %+v", d)
	}
	for deadline := time.Now().Add(10 * time.Second); capacityQ() != 400_000; {
		if time.Now().After(deadline) {
			t.Fatalf("remedy not reported by the agent: %+v", sc.SliceStatus(0))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if after := requests.Load(); after != before {
		t.Fatalf("the loop sent %d requests to the slicing northbound", after-before)
	}
}
