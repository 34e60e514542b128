package ctrl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/broker"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/transport"
)

// startBS brings up a base station with the full SM bundle connected to
// addr, and steps it in the background until the test ends.
func startBS(t *testing.T, addr string, nodeID uint64, scheme sm.Scheme, numRB int) *station.Station {
	t.Helper()
	b := startIdleBS(t, addr, nodeID, scheme, numRB)
	runSlots(t, b)
	return b
}

// startIdleBS is startBS without the background stepping: the test
// steps the station itself. The station is closed when the test ends.
func startIdleBS(t *testing.T, addr string, nodeID uint64, scheme sm.Scheme, numRB int) *station.Station {
	t.Helper()
	b, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: numRB}, SM: scheme, Controller: addr,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, nodeID)},
		SMs: []uint16{sm.IDMACStats, sm.IDRLCStats, sm.IDPDCPStats,
			sm.IDSliceCtrl, sm.IDTrafficCtrl, sm.IDHelloWorld},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// runSlots steps b, one TTI per ~30 µs, until the test ends; then it
// closes b.
func runSlots(t *testing.T, b *station.Station) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.Step(1)
			time.Sleep(30 * time.Microsecond)
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		b.Close()
	})
}

func startSrv(t *testing.T) (*server.Server, string) {
	t.Helper()
	s := server.New(server.Config{})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", what)
}

func TestMonitorCollectsAllLayers(t *testing.T) {
	s, addr := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1, Decode: true})
	b := startBS(t, addr, 1, sm.SchemeFB, 25)
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	if err := b.Cell.AddTraffic(1, &ran.Saturating{Flow: ran.FiveTuple{DstIP: 1}, RateBytesPerMS: 3000}); err != nil {
		t.Fatal(err)
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	await(t, "all layer reports", func() bool {
		return mon.MAC(id) != nil && mon.RLC(id) != nil && mon.PDCP(id) != nil
	})
	await(t, "nonzero MAC traffic", func() bool {
		rep := mon.MAC(id)
		return len(rep.UEs) == 1 && rep.UEs[0].TxBits > 0
	})
	inds, bytesIn := mon.Counters()
	if inds == 0 || bytesIn == 0 {
		t.Fatalf("counters: %d %d", inds, bytesIn)
	}
	// Built without TSDB, the monitor keeps its series in its own store.
	if n := mon.TSDB().NumSeries(); n == 0 {
		t.Fatal("no series in the monitor's default store")
	}
}

// TestMonitorRawMode: a raw-mode monitor built without TSDB archives
// payloads undecoded in its own store and hands out the caller's copy of
// the latest — mutating it leaves the next Raw intact — until the agent
// disconnects.
func TestMonitorRawMode(t *testing.T) {
	s, addr := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1, Layers: ctrl.MonMAC})
	// Registered after the monitor's hook, so it fires after it.
	var gone atomic.Bool
	s.OnAgentDisconnect(func(server.AgentInfo) { gone.Store(true) })
	b := startIdleBS(t, addr, 1, sm.SchemeFB, 25)
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	// Step until a payload is archived, then until no indication is in
	// flight, so the latest payload stays put.
	await(t, "raw payload", func() bool {
		b.Step(1)
		return mon.Raw(id, sm.IDMACStats) != nil
	})
	await(t, "quiet", func() bool {
		n, _ := mon.Counters()
		time.Sleep(50 * time.Millisecond)
		m, _ := mon.Counters()
		return n == m
	})
	if mon.MAC(id) != nil {
		t.Fatal("raw mode must not decode")
	}
	got := mon.Raw(id, sm.IDMACStats)
	if _, err := sm.DecodeMACReport(got); err != nil {
		t.Fatalf("raw payload must stay decodable: %v", err)
	}
	want := bytes.Clone(got)
	for i := range got {
		got[i] ^= 0xff
	}
	if again := mon.Raw(id, sm.IDMACStats); !bytes.Equal(again, want) {
		t.Fatal("mutating Raw's result changed the monitor's payload")
	}
	if mon.TSDB().RawCount(uint32(id), sm.IDMACStats) == 0 {
		t.Fatal("raw payloads not archived in the monitor's default store")
	}

	b.Close()
	await(t, "disconnect", gone.Load)
	if p := mon.Raw(id, sm.IDMACStats); p != nil {
		t.Fatalf("payload of a departed agent: %d bytes", len(p))
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSlicingControllerREST(t *testing.T) {
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
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	base := "http://" + sc.Addr()

	// GET /agents
	resp, err := http.Get(base + "/agents")
	if err != nil {
		t.Fatal(err)
	}
	var agents []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&agents); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(agents) != 1 || agents[0]["supportsSlicing"] != true {
		t.Fatalf("agents: %+v", agents)
	}

	// POST /slices: deploy a 66/34 NVS split.
	resp = postJSON(t, base+"/slices?agent=0", ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 1, Kind: "capacity", Capacity: 0.66, UESched: "pf"},
			{ID: 2, Kind: "capacity", Capacity: 0.34, UESched: "pf"},
		},
	})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST /slices: %s", resp.Status)
	}
	resp.Body.Close()
	if b.Cell.SliceMode() != ran.SliceNVS {
		t.Fatal("cell not sliced via REST")
	}

	// POST /assoc.
	resp = postJSON(t, base+"/assoc?agent=0", ctrl.AssocJSON{RNTI: 1, SliceID: 2})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST /assoc: %s", resp.Status)
	}
	resp.Body.Close()
	if b.Cell.UE(1).SliceID != 2 {
		t.Fatal("association not applied via REST")
	}

	// GET /slices eventually reflects the configuration.
	await(t, "slice status", func() bool {
		resp, err := http.Get(base + "/slices?agent=0")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var st sm.SliceStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return false
		}
		return st.Algo == "nvs" && len(st.Slices) == 2
	})

	// GET /stats serves the internal DB.
	await(t, "stats", func() bool {
		resp, err := http.Get(base + "/stats?agent=0")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// Error paths.
	resp = postJSON(t, base+"/slices?agent=0", ctrl.SliceConfigJSON{Algo: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus algo: %s", resp.Status)
	}
	resp.Body.Close()
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing agent param: %s", resp.Status)
	}
	resp.Body.Close()
	// Overbooked set surfaces as a gateway error (SM rejected it).
	resp = postJSON(t, base+"/slices?agent=0", ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 1, Kind: "capacity", Capacity: 0.8},
			{ID: 2, Kind: "capacity", Capacity: 0.8},
		},
	})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("overbooked: %s", resp.Status)
	}
	resp.Body.Close()
}

// A capacity share outside (0, 1] is refused at the northbound with 400
// and never reaches the agent. Sent on in parts per million, 4295.467296
// would wrap to a valid 0.5 share, and a negative one to another.
func TestSlicingRESTRejectsCapacityOutOfRange(t *testing.T) {
	s, addr := startSrv(t)
	sc, err := ctrl.NewSlicingController(s, sm.SchemeASN, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	b := startBS(t, addr, 1, sm.SchemeASN, 25)
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	url := "http://" + sc.Addr() + "/slices?agent=0"
	resp := postJSON(t, url, ctrl.SliceConfigJSON{Algo: "nvs", Slices: []ctrl.SliceParamJSON{
		{ID: 1, Kind: "capacity", Capacity: 0.25}, {ID: 2, Kind: "capacity", Capacity: 0.75},
	}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid POST /slices: %s", resp.Status)
	}
	want := b.Cell.Slices()
	for _, capacity := range []float64{4295.467296, -0.5, 1.5} {
		resp := postJSON(t, url, ctrl.SliceConfigJSON{Algo: "nvs", Slices: []ctrl.SliceParamJSON{
			{ID: 1, Kind: "capacity", Capacity: capacity},
		}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("capacity %v: %s, want 400", capacity, resp.Status)
		}
		if got := b.Cell.Slices(); !reflect.DeepEqual(got, want) {
			t.Errorf("capacity %v: cell slices %+v, want %+v", capacity, got, want)
		}
	}
}

func TestTCControllerBrokerAndREST(t *testing.T) {
	brk, brkAddr, err := broker.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	s, addr := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 10, Layers: ctrl.MonRLC})
	tcc, err := ctrl.NewTCController(mon, brkAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcc.Close()

	// xApp side: subscribe to the broker before the BS connects.
	xapp, err := broker.Dial(brkAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer xapp.Close()
	rlcCh, err := xapp.Subscribe("stats.rlc.0", 64)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	b := startBS(t, addr, 1, sm.SchemeFB, 25)
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })

	// RLC stats arrive via the broker.
	select {
	case m := <-rlcCh:
		if _, err := sm.DecodeRLCReport(m.Payload); err != nil {
			t.Fatalf("broker payload: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no RLC stats via broker")
	}

	// REST: the xApp's three-action remedy.
	base := "http://" + tcc.Addr()
	resp := postJSON(t, base+"/tc?agent=0", ctrl.TCCommandJSON{Op: "addQueue", RNTI: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("addQueue: %s", resp.Status)
	}
	var res ctrl.TCCommandResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Queue != 1 {
		t.Fatalf("queue id %d", res.Queue)
	}
	resp = postJSON(t, base+"/tc?agent=0", ctrl.TCCommandJSON{
		Op: "addFilter", RNTI: 1, Queue: res.Queue, DstPort: 5060, Proto: 17, MatchProto: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("addFilter: %s", resp.Status)
	}
	resp.Body.Close()
	resp = postJSON(t, base+"/tc?agent=0", ctrl.TCCommandJSON{Op: "setPacer", RNTI: 1, Pacer: "bdp", PacerTargetMS: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("setPacer: %s", resp.Status)
	}
	resp.Body.Close()

	var st ran.TCStats
	if err := b.Cell.WithUE(1, func(u *ran.UE) error { st = u.TC().Stats(); return nil }); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "active" || len(st.Queues) != 2 || st.Filters != 1 {
		t.Fatalf("TC state after REST: %+v", st)
	}

	// Error path: unknown op.
	resp = postJSON(t, base+"/tc?agent=0", ctrl.TCCommandJSON{Op: "explode", RNTI: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: %s", resp.Status)
	}
	resp.Body.Close()
}

func TestRelayTwoHopPing(t *testing.T) {
	// Topology: parent server ← relay ← BS agent (two hops).
	parent, parentAddr := startSrv(t)
	relay, err := ctrl.NewRelay("127.0.0.1:0", parentAddr, e2ap.SchemeASN, transport.KindSCTPish,
		[]uint16{sm.IDHelloWorld})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	// The relay's southbound listen address: read from its server.
	await(t, "relay registered at parent", func() bool { return len(parent.Agents()) == 1 })

	// Find the relay's south address by starting its server on a known
	// port: NewRelay used 127.0.0.1:0, so retrieve via test hook.
	southAddr := relaySouthAddr(t, relay)
	startBS(t, southAddr, 5, sm.SchemeASN, 25)
	// The relay's proxy learns of the BS from a connect hook that runs
	// after its server lists the agent. A subscription that came first
	// would be parked, and the ping, which does not park, lost.
	await(t, "BS at relay", func() bool { return len(ctrl.RelayAgents(relay)) == 1 })

	relayID := parent.Agents()[0].ID
	pongs := make(chan *sm.HWPing, 4)
	admitted := make(chan struct{})
	_, err = parent.Subscribe(relayID, sm.IDHelloWorld,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil,
		server.SubscriptionCallbacks{
			OnAdmitted: func(*e2ap.SubscriptionResponse) { close(admitted) },
			OnIndication: func(ev server.IndicationEvent) {
				if p, err := sm.DecodeHWPing(ev.Env.IndicationPayload()); err == nil {
					pongs <- p
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	// The proxy knows the BS, so the relay answers only after it has sent
	// the subscription south, and the ping follows it down the same
	// connection. Had the subscription been parked, it would have been
	// admitted before anything went south (TestRelayParkedLegControl).
	select {
	case <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("relay subscription not admitted")
	}
	ping := &sm.HWPing{Seq: 11, T0: time.Now().UnixNano(), Data: make([]byte, 100)}
	if err := parent.Control(relayID, sm.IDHelloWorld, nil, sm.EncodeHWPing(sm.SchemeASN, ping), false, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-pongs:
		if p.Seq != 11 {
			t.Fatalf("pong seq %d", p.Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no pong through the relay")
	}
}

// A control sent after OnAdmitted reaches the BS even while the leg is
// parked: the relay admits a subscription before any south agent
// exists, holds the fire-and-forget control that follows, and sends it
// south after the subscription once the BS connects. A north caller
// cannot tell admitted from placed, so it need not.
func TestRelayParkedLegControl(t *testing.T) {
	parent, parentAddr := startSrv(t)
	relay, err := ctrl.NewRelay("127.0.0.1:0", parentAddr, e2ap.SchemeASN, transport.KindSCTPish,
		[]uint16{sm.IDHelloWorld})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	await(t, "relay registered at parent", func() bool { return len(parent.Agents()) == 1 })

	relayID := parent.Agents()[0].ID
	pongs := make(chan *sm.HWPing, 4)
	admitted := make(chan struct{})
	if _, err := parent.Subscribe(relayID, sm.IDHelloWorld,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil,
		server.SubscriptionCallbacks{
			OnAdmitted: func(*e2ap.SubscriptionResponse) { close(admitted) },
			OnIndication: func(ev server.IndicationEvent) {
				if p, err := sm.DecodeHWPing(ev.Env.IndicationPayload()); err == nil {
					pongs <- p
				}
			},
		}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("parked subscription not admitted")
	}
	ping := &sm.HWPing{Seq: 12, T0: time.Now().UnixNano(), Data: make([]byte, 100)}
	if err := parent.Control(relayID, sm.IDHelloWorld, nil, sm.EncodeHWPing(sm.SchemeASN, ping), false, nil); err != nil {
		t.Fatal(err)
	}
	startBS(t, relaySouthAddr(t, relay), 5, sm.SchemeASN, 25)
	select {
	case p := <-pongs:
		if p.Seq != 12 {
			t.Fatalf("pong seq %d", p.Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the control sent to the parked leg never reached the BS")
	}
}

// A proxy holds at most 64 fire-and-forget controls for south agents
// that have not connected, and refuses the next one.
func TestProxyHeldControlsBounded(t *testing.T) {
	p, err := ctrl.NewProxy(server.New(server.Config{}), agent.New(agent.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := ctrl.ProxyControl(p, sm.IDHelloWorld, []byte{byte(i)}); err != nil {
			t.Fatalf("control %d not held: %v", i, err)
		}
	}
	if err := ctrl.ProxyControl(p, sm.IDHelloWorld, nil); err == nil {
		t.Fatal("a 65th control was held")
	}
}

// relaySouthAddr extracts the relay's southbound bound address.
func relaySouthAddr(t *testing.T, r *ctrl.Relay) string {
	t.Helper()
	return r.SouthAddr()
}

func TestRecursiveVirtualization(t *testing.T) {
	// The Fig. 15b topology: one shared 50 RB eNB, a virtualization
	// controller, and two tenant slicing controllers at 50 % SLA each.
	scheme := sm.SchemeASN

	// Tenant controllers (standard slicing controllers).
	tenantSrvA, tenantAddrA := startSrv(t)
	scA, err := ctrl.NewSlicingController(tenantSrvA, scheme, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer scA.Close()
	tenantSrvB, tenantAddrB := startSrv(t)
	scB, err := ctrl.NewSlicingController(tenantSrvB, scheme, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer scB.Close()

	// Virtualization controller: A owns UEs 1,2; B owns UEs 3,4.
	vc, southAddr, err := ctrl.NewVirtCtrl(ctrl.VirtConfig{
		Scheme: scheme,
		Tenants: []ctrl.Tenant{
			{Name: "A", SLA: 0.5, Subscribers: map[uint16]bool{1: true, 2: true}},
			{Name: "B", SLA: 0.5, Subscribers: map[uint16]bool{3: true, 4: true}},
		},
		SouthAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	// Shared infrastructure: 50 RB eNB with 4 saturating UEs.
	b := startBS(t, southAddr, 1, scheme, 50)
	for i := 1; i <= 4; i++ {
		if _, err := b.Cell.Attach(uint16(i), fmt.Sprintf("imsi-%d", i), "208.95", 28); err != nil {
			t.Fatal(err)
		}
		if err := b.Cell.AddTraffic(uint16(i), &ran.Saturating{
			Flow: ran.FiveTuple{DstIP: uint32(i)}, RateBytesPerMS: 8000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	await(t, "infra agent at virt layer", func() bool { return b.Cell.SliceMode() == ran.SliceNVS })

	// Attach tenants (in order).
	if err := vc.ConnectTenant(0, tenantAddrA); err != nil {
		t.Fatal(err)
	}
	if err := vc.ConnectTenant(1, tenantAddrB); err != nil {
		t.Fatal(err)
	}
	await(t, "tenant controllers see the virtual agent", func() bool {
		return len(tenantSrvA.Agents()) == 1 && len(tenantSrvB.Agents()) == 1
	})

	// Tenant A configures sub-slices 66/34 through its own REST API.
	baseA := "http://" + scA.Addr()
	resp := postJSON(t, baseA+"/slices?agent=0", ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 0, Kind: "capacity", Capacity: 0.66, UESched: "pf"},
			{ID: 1, Kind: "capacity", Capacity: 0.34, UESched: "pf"},
		},
	})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("tenant A slices: %s", resp.Status)
	}
	resp.Body.Close()
	resp = postJSON(t, baseA+"/assoc?agent=0", ctrl.AssocJSON{RNTI: 2, SliceID: 1})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("tenant A assoc: %s", resp.Status)
	}
	resp.Body.Close()

	// Physical state: 4 slices (A: 33%/17%, B: default 50%), IDs in
	// disjoint intervals.
	await(t, "physical slices updated", func() bool { return len(b.Cell.Slices()) == 3 })
	phys := b.Cell.Slices()
	var capSum float64
	for _, c := range phys {
		capSum += c.Capacity
	}
	if capSum > 1.001 || capSum < 0.99 {
		t.Fatalf("physical capacity sum %.3f", capSum)
	}
	// Tenant A's virtual 66% must be physical 33%.
	found := false
	for _, c := range phys {
		if c.ID == 0 && c.Capacity > 0.32 && c.Capacity < 0.34 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tenant A phys slices wrong: %+v", phys)
	}

	// Tenant A cannot exceed its SLA.
	resp = postJSON(t, baseA+"/slices?agent=0", ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 0, Kind: "capacity", Capacity: 0.9},
			{ID: 1, Kind: "capacity", Capacity: 0.9},
		},
	})
	if resp.StatusCode == http.StatusNoContent {
		t.Fatal("tenant must not exceed its SLA")
	}
	resp.Body.Close()

	// Tenant A cannot associate tenant B's UE.
	resp = postJSON(t, baseA+"/assoc?agent=0", ctrl.AssocJSON{RNTI: 3, SliceID: 0})
	if resp.StatusCode == http.StatusNoContent {
		t.Fatal("cross-tenant association must be rejected")
	}
	resp.Body.Close()

	// MAC stats partitioning: tenant A's stats only show UEs 1 and 2.
	await(t, "partitioned stats at tenant A", func() bool {
		rep := scA.Monitor().MAC(0)
		if rep == nil || len(rep.UEs) != 2 {
			return false
		}
		for _, u := range rep.UEs {
			if u.RNTI != 1 && u.RNTI != 2 {
				t.Fatalf("tenant A sees foreign UE %d", u.RNTI)
			}
		}
		return true
	})

	// Isolation: tenant B's UEs together get ~50% of the cell.
	time.Sleep(300 * time.Millisecond) // let EWMAs settle under load
	start3, start4 := b.Cell.UEDeliveredBits(3), b.Cell.UEDeliveredBits(4)
	startT := b.Cell.Now()
	await(t, "throughput window", func() bool { return b.Cell.Now() >= startT+2000 })
	elapsed := float64(b.Cell.Now() - startT)
	gotB := float64(b.Cell.UEDeliveredBits(3)-start3+b.Cell.UEDeliveredBits(4)-start4) / elapsed * 1000 / 1e6
	cellMbps := float64(ran.CellCapacityBits(50, 28)) * 1000 / 1e6
	if gotB < 0.42*cellMbps || gotB > 0.58*cellMbps {
		t.Fatalf("tenant B throughput %.1f Mbps, want ~50%% of %.1f", gotB, cellMbps)
	}
}
