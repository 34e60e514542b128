package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexric/internal/a1"
	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/faultinject"
	"flexric/internal/obs"
	"flexric/internal/obs/ws"
	"flexric/internal/ran"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/telemetry"
	"flexric/internal/tsdb"
	"flexric/internal/xapp"
)

// SLALoad is the A1 policy plane's acceptance experiment (`make
// sla-demo`): the full closed loop — policy northbound, tsdb windows,
// SLA xApp, NVS weight remedies — driven through a violation and back,
// with the verdicts observed on the control-room a1 stream channel and
// the transport disrupted by a scripted reconnect storm along the way.
//
// Timeline on a 106 RB NR cell with two NVS slices (0.3 / 0.7, sharing
// on) and a slice-1 throughput SLA at 45 % of cell capacity:
//
//  1. baseline — slice 2 idle, work conservation lets slice 1 borrow
//     the surplus: target met, policy ENFORCED
//  2. load surge — slice 2 saturates, slice 1 falls back to its 0.3
//     reservation: below target, policy VIOLATED, the xApp shifts
//     capacity toward slice 1 until the target holds again (ENFORCED)
//  3. slice churn — the surge UE is re-associated across slices a few
//     times; the loop keeps the verdict stable
//  4. reconnect storm — scripted connection drops cut the agent; the
//     resilience layer re-admits it and the loop keeps enforcing

// SLALoadOptions parameterizes one run.
type SLALoadOptions struct {
	E2Scheme e2ap.Scheme
	SMScheme sm.Scheme
}

// SLALoadResult is the closed-loop evidence.
type SLALoadResult struct {
	Scheme       string
	TargetMbps   float64 // SLA floor for slice 1
	BaselineMbps float64 // slice 1 while slice 2 is idle (borrowing)
	SurgeMbps    float64 // slice 1 under surge, before the remedy
	RemediedMbps float64 // slice 1 after the loop's weight shift
	Share0       float64 // slice 1 capacity share before remedies
	Share1       float64 // slice 1 capacity share after remedies
	Remedies     uint64  // a1.enforce.remedies fired
	Transitions  uint64  // status transitions on the policy
	StreamEvents int     // a1 events seen by the WebSocket observer
	SawViolated  bool    // VIOLATED observed on the stream channel
	SawEnforced  bool    // ENFORCED observed on the stream channel
	Drops        uint64  // reconnect-storm drops fired
	Reconnects   uint64  // re-admissions observed by the server
	// Subscriptions is the server's E2 subscription count at the end:
	// the shared monitor's MAC one and the slicing controller's SC one.
	Subscriptions int
	FinalStatus   string
}

// String renders the result table.
func (r *SLALoadResult) String() string {
	return fmt.Sprintf("slaload — A1 closed loop, slice-1 SLA %.0f Mbps, scheme %s\n", r.TargetMbps, r.Scheme) +
		Table(
			[]string{"baseline", "surge", "remedied", "share before", "share after",
				"remedies", "transitions", "a1 events", "drops", "reconnects", "subs", "final"},
			[][]string{{
				fmt.Sprintf("%.1f", r.BaselineMbps),
				fmt.Sprintf("%.1f", r.SurgeMbps),
				fmt.Sprintf("%.1f", r.RemediedMbps),
				fmt.Sprintf("%.2f", r.Share0),
				fmt.Sprintf("%.2f", r.Share1),
				fmt.Sprint(r.Remedies),
				fmt.Sprint(r.Transitions),
				fmt.Sprint(r.StreamEvents),
				fmt.Sprint(r.Drops),
				fmt.Sprint(r.Reconnects),
				fmt.Sprint(r.Subscriptions),
				r.FinalStatus,
			}},
		)
}

// a1Observer is the headless control-room client: it subscribes to the
// a1 stream channel and records every live event it sees.
type a1Observer struct {
	conn *ws.Conn
	mu   sync.Mutex
	evs  []struct{ Type, Status string }
	done chan struct{}
}

func newA1Observer(addr string) (*a1Observer, error) {
	conn, err := ws.Dial("ws://"+addr+"/stream/ws", 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := conn.WriteText([]byte(`{"op":"subscribe","ch":"a1","flush_ms":20}`)); err != nil {
		conn.Close()
		return nil, err
	}
	o := &a1Observer{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(o.done)
		for {
			_, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			var frame struct {
				Ch       string `json:"ch"`
				Backfill bool   `json:"backfill"`
				Events   []struct {
					Type   string `json:"type"`
					Status string `json:"status"`
				} `json:"events"`
			}
			if json.Unmarshal(payload, &frame) != nil || frame.Ch != "a1" || frame.Backfill {
				continue
			}
			o.mu.Lock()
			for _, e := range frame.Events {
				o.evs = append(o.evs, struct{ Type, Status string }{e.Type, e.Status})
			}
			o.mu.Unlock()
		}
	}()
	return o, nil
}

// close ends the stream. Only one goroutine may read a ws.Conn, so the
// reader goroutine, not CloseHandshake, drains for the peer's echo.
func (o *a1Observer) close() {
	_ = o.conn.WriteClose(ws.CloseNormal, "done")
	_ = o.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	<-o.done
	o.conn.Close()
}

func (o *a1Observer) stats() (n int, sawViolated, sawEnforced bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, e := range o.evs {
		if e.Type == "status" {
			switch e.Status {
			case string(a1.StatusViolated):
				sawViolated = true
			case string(a1.StatusEnforced):
				sawEnforced = true
			}
		}
	}
	return len(o.evs), sawViolated, sawEnforced
}

// SLALoad runs the closed-loop timeline and returns the evidence.
func SLALoad(opts SLALoadOptions) (*SLALoadResult, error) {
	// The reconnect storm scripted on the agent's connections.
	connPlan, err := faultinject.Parse("drop@1500,drop@1500,drop@1500")
	if err != nil {
		return nil, err
	}

	const numRB, mcs = 106, 20
	capMbps := float64(ran.CellCapacityBits(numRB, mcs)) * 1000 / 1e6
	targetMbps := 0.45 * capMbps
	res := &SLALoadResult{Scheme: string(opts.E2Scheme), TargetMbps: targetMbps}

	// Controller side: E2 server with resilience, a monitor feeding the
	// shared store, the slicing northbound reading that monitor, the
	// policy store, and the obs server with both the control room and
	// the A1 northbound.
	resCfg := &resilience.Config{
		Backoff: resilience.BackoffPolicy{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}
	srv := server.New(server.Config{Scheme: opts.E2Scheme, Resilience: resCfg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var reconnects atomic.Uint64
	srv.OnAgentReconnect(func(server.AgentInfo) { reconnects.Add(1) })

	store := tsdb.New(tsdb.Config{Capacity: 4096})
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{
		Scheme: opts.SMScheme, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true, TSDB: store,
	})
	sc, err := ctrl.NewSlicingController(srv, opts.SMScheme, "127.0.0.1:0", ctrl.WithMonitor(mon))
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	pols := a1.NewStore()
	topo := ctrl.NewTopology(srv, ctrl.TopoWithMonitor(mon), ctrl.TopoWithSlicing(sc), ctrl.TopoWithA1(pols))
	o, err := obs.NewServer("127.0.0.1:0",
		obs.WithTSDB(store), obs.WithStream(20), obs.WithA1(pols),
		obs.WithTopology(func() any { return topo.Snapshot() }))
	if err != nil {
		return nil, err
	}
	defer o.Close()
	watcher, err := newA1Observer(o.Addr())
	if err != nil {
		return nil, err
	}
	defer watcher.close()

	// RAN side: one NR cell whose agent dials through the scripted
	// connection faults; mac + slice SMs, two UEs.
	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT5G, NumRB: numRB}, SM: opts.SMScheme, Controller: addr,
		Agent: agent.Config{
			NodeID: station.Node(e2ap.NodeGNB, 1), Scheme: opts.E2Scheme,
			Resilience: resCfg, WrapConn: connPlan.WrapConn,
		},
		SMs: []uint16{sm.IDMACStats, sm.IDSliceCtrl},
	})
	if err != nil {
		return nil, err
	}
	defer bs.Close()
	if _, err := bs.Cell.Attach(1, "", "208.95", mcs); err != nil {
		return nil, err
	}
	if err := Saturate(bs.Cell, 1); err != nil {
		return nil, err
	}
	if _, err := bs.Cell.Attach(2, "", "208.95", mcs); err != nil {
		return nil, err
	}
	if !WaitUntil(waitShort, func() bool { return len(srv.Agents()) == 1 }) {
		return nil, fmt.Errorf("slaload: agent connect")
	}

	// Slice layout: 0.3 / 0.7 with sharing on; UE 1 carries the SLA.
	sx := xapp.NewSliceXApp("http://"+sc.Addr(), 0)
	if err := sx.Deploy(nvsSlices(false, 1, 0.3, 0.7)); err != nil {
		return nil, err
	}
	if err := sx.Associate(1, 1); err != nil {
		return nil, err
	}
	if err := sx.Associate(2, 2); err != nil {
		return nil, err
	}

	// Install the SLA through the A1 northbound, exactly as an operator
	// would: POST the typed policy to the obs server.
	pol := a1.Policy{
		ID: "sla-slice1", TypeID: a1.TypeSliceSLA, Agent: 0, Priority: 10,
		WindowMS: 400,
		Targets:  []a1.SliceTarget{{SliceID: 1, MinThroughputMbps: targetMbps}},
	}
	body, _ := json.Marshal(&pol)
	resp, err := http.Post("http://"+o.Addr()+"/a1/policies", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("slaload: policy create: %s", resp.Status)
	}

	// The enforcement loop, driven deterministically: StepShare 0.2 so
	// one remedy lifts slice 1 from 0.3 to 0.5 of capacity (> the 0.45
	// target).
	x := xapp.NewSLAXApp(xapp.SLAConfig{
		Policies: pols, TSDB: store, Slicing: sc,
		HysteresisTicks: 2, StepShare: 0.2,
	})

	var lastMu sync.Mutex
	var last []xapp.PolicyDecision
	slice1 := func() (mbps float64, status a1.Status) {
		lastMu.Lock()
		defer lastMu.Unlock()
		for _, d := range last {
			if d.PolicyID != pol.ID {
				continue
			}
			status = d.Status
			for _, ev := range d.Slices {
				if ev.SliceID == 1 {
					mbps = ev.ThroughputMbps
				}
			}
		}
		return
	}

	// step advances the simulated cell (~20 sim ms per wall ms) while
	// polling cond; with enforce it also runs one enforcement tick per
	// wall millisecond and records every remedy it fires.
	var remedied []string
	step := func(what string, enforce bool, cond func() bool) error {
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("slaload: timeout waiting for %s", what)
			}
			bs.Step(20)
			if enforce {
				ds := x.EnforceOnce()
				lastMu.Lock()
				last = ds
				lastMu.Unlock()
				for _, d := range ds {
					if d.Remedied {
						remedied = append(remedied, fmt.Sprintf("%s to shares %v (%s)", d.PolicyID, d.NewShares, d.Reason))
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	drive := func(what string, cond func() bool) error { return step(what, true, cond) }
	status := func() a1.Status {
		st, ok := pols.Get(pol.ID)
		if !ok {
			return ""
		}
		return st.Status
	}
	share1 := func() float64 {
		if st := sc.SliceStatus(0); st != nil {
			for _, s := range st.Slices {
				if s.ID == 1 {
					return float64(s.CapacityQ) / 1e6
				}
			}
		}
		return 0
	}

	remedies0 := telemetry.TakeSnapshot().Counter("a1.enforce.remedies")

	// Phase 1: baseline — slice 2 idle, slice 1 borrows, target met.
	// The cell first steps without enforcement until the store holds a
	// full policy window of slice 1 (its one UE) above the target, so a
	// slow start cannot read as a violation and fire a remedy before the
	// surge; then the loop must find the target met.
	k1 := tsdb.SeriesKey{Agent: uint32(pol.Agent), Fn: sm.IDMACStats, UE: 1, Field: tsdb.FieldThroughputBps}
	windowNS := pol.WindowMS * int64(time.Millisecond)
	var firstTS int64
	if err := step("a full baseline window", false, func() bool {
		now := time.Now().UnixNano()
		if firstTS == 0 {
			if agg, ok := store.Aggregate(k1, 0, now); ok {
				firstTS = agg.FirstTS
			}
		}
		agg, ok := store.Aggregate(k1, now-windowNS, now)
		return firstTS != 0 && now-firstTS >= windowNS && ok && agg.P50/1e6 > targetMbps
	}); err != nil {
		return nil, err
	}
	if err := drive("baseline ENFORCED", func() bool {
		mbps, _ := slice1()
		return status() == a1.StatusEnforced && mbps > targetMbps
	}); err != nil {
		return nil, err
	}
	res.BaselineMbps, _ = slice1()
	res.Share0 = share1()
	if len(remedied) > 0 {
		return nil, fmt.Errorf("slaload: remedy fired before the surge: %s", strings.Join(remedied, "; "))
	}

	// Phase 2: load surge — slice 2 saturates, slice 1 drops to its
	// reservation and the SLA breaks.
	if err := Saturate(bs.Cell, 2); err != nil {
		return nil, err
	}
	if err := drive("surge VIOLATED", func() bool {
		return status() == a1.StatusViolated
	}); err != nil {
		return nil, err
	}
	res.SurgeMbps, _ = slice1()

	// ... and the loop remedies it: capacity shifts to slice 1 until the
	// target holds again.
	if err := drive("remedied ENFORCED", func() bool {
		mbps, _ := slice1()
		return status() == a1.StatusEnforced && mbps > targetMbps && share1() > 0.31
	}); err != nil {
		return nil, err
	}
	res.RemediedMbps, _ = slice1()
	res.Share1 = share1()

	// Phase 3: slice churn — bounce the surge UE across slices; the
	// verdict must settle back to ENFORCED every time.
	for i := 0; i < 3; i++ {
		if err := sx.Associate(2, 1); err != nil {
			return nil, err
		}
		if err := drive("churn tick", func() bool { return status() != "" }); err != nil {
			return nil, err
		}
		if err := sx.Associate(2, 2); err != nil {
			return nil, err
		}
	}
	if err := drive("post-churn ENFORCED", func() bool {
		return status() == a1.StatusEnforced
	}); err != nil {
		return nil, err
	}

	// Phase 4: reconnect storm — every scripted drop fires, every cut
	// ends in a re-admission, and the loop is still enforcing after.
	want := uint64(len(connPlan.Drops))
	if err := drive("reconnect storm", func() bool {
		return connPlan.DropsFired() >= want && reconnects.Load() >= want
	}); err != nil {
		return nil, err
	}
	if err := drive("post-storm ENFORCED", func() bool {
		mbps, _ := slice1()
		return status() == a1.StatusEnforced && mbps > targetMbps
	}); err != nil {
		return nil, err
	}

	st, _ := pols.Get(pol.ID)
	res.FinalStatus = string(st.Status)
	res.Transitions = st.Transitions
	res.Remedies = telemetry.TakeSnapshot().Counter("a1.enforce.remedies") - remedies0
	res.Drops = connPlan.DropsFired()
	res.Reconnects = reconnects.Load()
	res.Subscriptions = srv.NumSubscriptions()

	// Give the hub one flush tick to deliver the tail before reading the
	// observer.
	time.Sleep(100 * time.Millisecond)
	res.StreamEvents, res.SawViolated, res.SawEnforced = watcher.stats()
	return res, nil
}
