package oranric_test

import (
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/oranric"
	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/station"
)

// startAgentBS brings up a simulated BS with a standard FlexRIC agent
// connected to the O-RAN RIC — proving E2-level interoperability.
func startAgentBS(t *testing.T, addr string) *station.Station {
	t.Helper()
	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: sm.SchemeASN, Controller: addr,
		// O-RAN standard encoding.
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 4), Scheme: e2ap.SchemeASN},
		SMs:   []uint16{sm.IDMACStats, sm.IDHelloWorld},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bs.Close)
	return bs
}

func TestRICSetupAndSubscription(t *testing.T) {
	ric, err := oranric.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ric.Close()

	bs := startAgentBS(t, ric.Addr())
	if _, err := bs.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(ric.Agents()) == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if len(ric.Agents()) != 1 {
		t.Fatal("agent did not register at the RIC")
	}
	agentID := ric.Agents()[0]

	var subscribed atomic.Bool
	var reports atomic.Int64
	x := ric.DeployXApp("stats-mon", oranric.XAppCallbacks{
		OnSubscribed: func(int) { subscribed.Store(true) },
		OnIndication: func(ag int, ind *e2ap.Indication) {
			if _, err := sm.DecodeMACReport(ind.Payload); err == nil {
				reports.Add(1)
			}
		},
	})
	if err := x.Subscribe(agentID, sm.IDMACStats,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}),
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !subscribed.Load() {
		time.Sleep(2 * time.Millisecond)
	}
	if !subscribed.Load() {
		t.Fatal("no subscription confirmation through the pipeline")
	}

	// Drive the BS slot loop; reports must traverse both hops.
	for i := 0; i < 200 && reports.Load() < 20; i++ {
		bs.Step(1)
		time.Sleep(time.Millisecond)
	}
	if reports.Load() < 20 {
		t.Fatalf("only %d reports through the two-hop pipeline", reports.Load())
	}

	// The structural claim of Fig. 9b: every relayed message is decoded
	// at the E2T and again at the xApp host.
	e2t, xapp := ric.DoubleDecodes()
	if e2t == 0 || xapp == 0 {
		t.Fatalf("double-decode counters: e2t=%d xapp=%d", e2t, xapp)
	}
	if xapp > e2t {
		t.Fatalf("xapp decodes (%d) cannot exceed e2t decodes (%d)", xapp, e2t)
	}
}

func TestRICControlPath(t *testing.T) {
	ric, err := oranric.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ric.Close()
	startAgentBS(t, ric.Addr())

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(ric.Agents()) == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	agentID := ric.Agents()[0]

	pongs := make(chan *sm.HWPing, 4)
	var subbed atomic.Bool
	x := ric.DeployXApp("hw", oranric.XAppCallbacks{
		OnSubscribed: func(int) { subbed.Store(true) },
		OnIndication: func(ag int, ind *e2ap.Indication) {
			if p, err := sm.DecodeHWPing(ind.Payload); err == nil {
				pongs <- p
			}
		},
	})
	if err := x.Subscribe(agentID, sm.IDHelloWorld,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !subbed.Load() {
		time.Sleep(2 * time.Millisecond)
	}
	ping := &sm.HWPing{Seq: 5, T0: time.Now().UnixNano(), Data: make([]byte, 100)}
	if err := x.Control(agentID, sm.IDHelloWorld, nil, sm.EncodeHWPing(sm.SchemeASN, ping), false); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-pongs:
		if p.Seq != 5 {
			t.Fatalf("pong seq %d", p.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pong through two hops")
	}
}

func TestFootprintModel(t *testing.T) {
	comps := oranric.PlatformComponents()
	if len(comps) != 15 {
		t.Fatalf("platform components: %d, want 15 (Cherry default deployment)", len(comps))
	}
	img := oranric.PlatformImageMB()
	if img != 2469 {
		t.Fatalf("platform image total %d MB, calibrated to Table 2's 2469", img)
	}
	res := oranric.PlatformResidentMB()
	if res < 900 || res > 1100 {
		t.Fatalf("platform resident %d MB, calibrated near Fig. 9b's 1024", res)
	}
	for _, c := range comps {
		if c.Name == "" || c.ImageMB <= 0 || c.ResidentMB <= 0 {
			t.Fatalf("component %+v incomplete", c)
		}
	}
}
