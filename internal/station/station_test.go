package station_test

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
)

var lte = ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}

func ids(fns []agent.RANFunction) []uint16 {
	var out []uint16
	for _, fn := range fns {
		out = append(out, fn.Definition().ID)
	}
	return out
}

func TestNewRegistersListedSMsInOrder(t *testing.T) {
	for _, want := range [][]uint16{
		nil,
		{sm.IDHelloWorld},
		{sm.IDTrafficCtrl, sm.IDRLCStats},
		{sm.IDHelloWorld, sm.IDKPM, sm.IDRRC, sm.IDTrafficCtrl, sm.IDSliceCtrl, sm.IDPDCPStats, sm.IDRLCStats, sm.IDMACStats},
	} {
		bs, err := station.New(station.Spec{Cell: lte, SMs: want})
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(bs.Fns); !slices.Equal(got, want) {
			t.Errorf("Fns = %v, want %v", got, want)
		}
		var registered []uint16
		for _, def := range bs.Agent.Functions() {
			registered = append(registered, def.ID)
		}
		sorted := slices.Clone(want)
		slices.Sort(sorted)
		slices.Sort(registered)
		if !slices.Equal(registered, sorted) {
			t.Errorf("agent registered %v, want %v", registered, sorted)
		}
		bs.Close()
	}
}

func TestNewRejectsUnknownAndDuplicateIDs(t *testing.T) {
	for _, tc := range []struct {
		sms  []uint16
		want string
	}{
		{[]uint16{sm.IDMACStats, 999}, "unknown SM ID 999"},
		{[]uint16{sm.IDTrafficCtrl + 100}, "unknown SM ID 246"},
		{[]uint16{sm.IDMACStats, sm.IDMACStats}, "duplicate RAN function 142"},
	} {
		if _, err := station.New(station.Spec{Cell: lte, SMs: tc.sms}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%v) error = %v, want %q", tc.sms, err, tc.want)
		}
	}
	if _, err := station.New(station.Spec{Cell: ran.PHYConfig{RAT: ran.RAT4G}}); err == nil {
		t.Error("New accepted a cell without resource blocks")
	}
}

// countSender counts the indications a subscription receives.
type countSender struct{ n atomic.Int64 }

func (s *countSender) SendIndication(uint8, e2ap.IndicationClass, []byte, []byte) error {
	s.n.Add(1)
	return nil
}

func (s *countSender) Controller() agent.ControllerID { return 0 }

func TestStepAdvancesCellAndTicksReporters(t *testing.T) {
	bs, err := station.New(station.Spec{Cell: lte, SM: sm.SchemeFB, SMs: []uint16{sm.IDMACStats, sm.IDHelloWorld}})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	var tx countSender
	req := &e2ap.SubscriptionRequest{
		RANFunctionID: sm.IDMACStats,
		EventTrigger:  sm.EncodeTrigger(sm.SchemeFB, sm.Trigger{PeriodMS: 2}),
	}
	if err := bs.Fns[0].OnSubscription(0, req, &tx); err != nil {
		t.Fatal(err)
	}
	bs.Step(0)
	if now := bs.Cell.Now(); now != 0 || tx.n.Load() != 0 {
		t.Fatalf("Step(0): now=%d reports=%d, want 0 and 0", now, tx.n.Load())
	}
	bs.Step(7)
	if now := bs.Cell.Now(); now != 7 {
		t.Fatalf("Step(7): now=%d, want 7", now)
	}
	// Period 2 over ticks at 1..7: due at 1, 3, 5 and 7.
	if got := tx.n.Load(); got != 4 {
		t.Fatalf("reports after Step(7) = %d, want 4", got)
	}
}

func TestNewConnectsToController(t *testing.T) {
	srv := server.New(server.Config{Scheme: e2ap.SchemeFB})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	node := station.Node(e2ap.NodeGNB, 7)
	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT5G, NumRB: 106}, SM: sm.SchemeFB, Controller: addr,
		Agent: agent.Config{NodeID: node, Scheme: e2ap.SchemeFB},
		SMs:   []uint16{sm.IDMACStats, sm.IDSliceCtrl},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Agents()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("station did not connect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	info := srv.Agents()[0]
	if info.NodeID != node || node.PLMN != (e2ap.PLMN{MCC: 208, MNC: 95}) {
		t.Fatalf("node = %v, want %v in PLMN 208.95", info.NodeID, node)
	}
	if !info.HasFunction(sm.IDMACStats) || !info.HasFunction(sm.IDSliceCtrl) || len(info.Functions) != 2 {
		t.Fatalf("setup announced %v, want MAC and slice control", info.Functions)
	}
	if _, err := station.New(station.Spec{Cell: lte, Controller: "127.0.0.1:1",
		Agent: agent.Config{DialTimeout: time.Second}}); err == nil {
		t.Fatal("New succeeded without a controller listening")
	}
}
