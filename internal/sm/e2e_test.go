package sm_test

import (
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/nvs"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/transport"
)

// startBS brings up a simulated base station with a FlexRIC agent
// exposing the full SM bundle — the composition of Fig. 3 — and drives
// its slot loop in real time until the test ends.
func startBS(t *testing.T, addr string, scheme sm.Scheme) *station.Station {
	t.Helper()
	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: scheme, Controller: addr,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1)},
		SMs: []uint16{sm.IDMACStats, sm.IDRLCStats, sm.IDPDCPStats, sm.IDSliceCtrl,
			sm.IDTrafficCtrl, sm.IDRRC, sm.IDKPM, sm.IDHelloWorld},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 TTI per iteration, yielding so the test stays fast while
	// preserving slot semantics.
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
			time.Sleep(50 * time.Microsecond)
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		bs.Close()
	})
	return bs
}

func startRIC(t *testing.T) (*server.Server, string) {
	t.Helper()
	s := server.New(server.Config{Transport: transport.KindSCTPish})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func waitAgents(t *testing.T, s *server.Server, n int) server.AgentID {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ags := s.Agents(); len(ags) >= n {
			return ags[0].ID
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("agents did not connect")
	return 0
}

func TestMACStatsEndToEnd(t *testing.T) {
	for _, scheme := range []sm.Scheme{sm.SchemeASN, sm.SchemeFB} {
		t.Run(scheme.String(), func(t *testing.T) {
			s, addr := startRIC(t)
			bs := startBS(t, addr, scheme)
			if _, err := bs.Cell.Attach(1, "imsi-1", "208.95", 28); err != nil {
				t.Fatal(err)
			}
			if err := bs.Cell.AddTraffic(1, &ran.Saturating{Flow: ran.FiveTuple{DstIP: 1}, RateBytesPerMS: 10000}); err != nil {
				t.Fatal(err)
			}
			agentID := waitAgents(t, s, 1)

			var reports atomic.Int64
			var lastTx atomic.Uint64
			_, err := s.Subscribe(agentID, sm.IDMACStats,
				sm.EncodeTrigger(scheme, sm.Trigger{PeriodMS: 1}),
				[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
				server.SubscriptionCallbacks{
					OnIndication: func(ev server.IndicationEvent) {
						rep, err := sm.DecodeMACReport(ev.Env.IndicationPayload())
						if err != nil {
							t.Errorf("decode: %v", err)
							return
						}
						if len(rep.UEs) == 1 && rep.UEs[0].RNTI == 1 {
							lastTx.Store(rep.UEs[0].TxBits)
							reports.Add(1)
						}
					},
				})
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) && (reports.Load() < 50 || lastTx.Load() == 0) {
				time.Sleep(5 * time.Millisecond)
			}
			if reports.Load() < 50 {
				t.Fatalf("only %d reports", reports.Load())
			}
			if lastTx.Load() == 0 {
				t.Fatal("MAC TxBits never became nonzero")
			}
		})
	}
}

func TestSliceControlEndToEnd(t *testing.T) {
	s, addr := startRIC(t)
	bs := startBS(t, addr, sm.SchemeASN)
	if _, err := bs.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	agentID := waitAgents(t, s, 1)

	apply := func(c *sm.SliceControl) error {
		errCh := make(chan error, 1)
		if err := s.Control(agentID, sm.IDSliceCtrl, nil,
			sm.EncodeSliceControl(sm.SchemeASN, c), true,
			func(_ []byte, err error) { errCh <- err }); err != nil {
			return err
		}
		select {
		case err := <-errCh:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("control timeout")
			return nil
		}
	}

	cfg := &sm.SliceControl{
		Op: sm.OpConfigureSlices,
		Slices: sm.ParamsFromNVS([]nvs.Config{
			{ID: 1, Kind: nvs.KindCapacity, Capacity: 0.5, UESched: "pf"},
			{ID: 2, Kind: nvs.KindCapacity, Capacity: 0.5, UESched: "pf"},
		}),
	}
	if err := apply(cfg); err != nil {
		t.Fatalf("configure: %v", err)
	}
	if bs.Cell.SliceMode() != ran.SliceNVS || len(bs.Cell.Slices()) != 2 {
		t.Fatalf("cell not sliced: %v %d", bs.Cell.SliceMode(), len(bs.Cell.Slices()))
	}
	if err := apply(&sm.SliceControl{Op: sm.OpAssociateUE, RNTI: 1, SliceID: 2}); err != nil {
		t.Fatalf("associate: %v", err)
	}
	if bs.Cell.UE(1).SliceID != 2 {
		t.Fatal("association not applied")
	}
	// Overbooked configuration must fail admission control at the SM.
	bad := &sm.SliceControl{
		Op: sm.OpConfigureSlices,
		Slices: sm.ParamsFromNVS([]nvs.Config{
			{ID: 1, Kind: nvs.KindCapacity, Capacity: 0.7},
			{ID: 2, Kind: nvs.KindCapacity, Capacity: 0.7},
		}),
	}
	if err := apply(bad); err == nil {
		t.Fatal("overbooked slice set must be rejected")
	}
	if err := apply(&sm.SliceControl{Op: sm.OpDisableSlicing}); err != nil {
		t.Fatalf("disable: %v", err)
	}
	if bs.Cell.SliceMode() != ran.SliceNone {
		t.Fatal("slicing not disabled")
	}
}

func TestTCControlEndToEnd(t *testing.T) {
	s, addr := startRIC(t)
	bs := startBS(t, addr, sm.SchemeFB)
	if _, err := bs.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	agentID := waitAgents(t, s, 1)

	do := func(c *sm.TCControl) ([]byte, error) {
		type res struct {
			out []byte
			err error
		}
		ch := make(chan res, 1)
		if err := s.Control(agentID, sm.IDTrafficCtrl, nil,
			sm.EncodeTCControl(sm.SchemeFB, c), true,
			func(out []byte, err error) { ch <- res{out, err} }); err != nil {
			return nil, err
		}
		select {
		case r := <-ch:
			return r.out, r.err
		case <-time.After(5 * time.Second):
			t.Fatal("control timeout")
			return nil, nil
		}
	}

	out, err := do(&sm.TCControl{Op: sm.OpAddQueue, RNTI: 1})
	if err != nil {
		t.Fatalf("add queue: %v", err)
	}
	oc, err := sm.DecodeTCOutcome(out)
	if err != nil || oc.Queue != 1 {
		t.Fatalf("outcome: %+v %v", oc, err)
	}
	if _, err := do(&sm.TCControl{
		Op: sm.OpAddFilter, RNTI: 1, Queue: oc.Queue,
		DstPort: 5060, Proto: 17, MatchProto: true,
	}); err != nil {
		t.Fatalf("add filter: %v", err)
	}
	if _, err := do(&sm.TCControl{Op: sm.OpSetPacer, RNTI: 1, Pacer: uint8(ran.PacerBDP), PacerTargetMS: 4}); err != nil {
		t.Fatalf("set pacer: %v", err)
	}
	var st ran.TCStats
	if err := bs.Cell.WithUE(1, func(u *ran.UE) error {
		st = u.TC().Stats()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "active" || len(st.Queues) != 2 || st.Filters != 1 || st.Pacer != ran.PacerBDP {
		t.Fatalf("TC state: %+v", st)
	}
	// Control for an unknown UE fails.
	if _, err := do(&sm.TCControl{Op: sm.OpAddQueue, RNTI: 99}); err == nil {
		t.Fatal("unknown UE must fail")
	}
}

func TestRRCNotificationEndToEnd(t *testing.T) {
	s, addr := startRIC(t)
	bs := startBS(t, addr, sm.SchemeASN)
	agentID := waitAgents(t, s, 1)

	events := make(chan *sm.RRCEvent, 4)
	admitted := make(chan struct{})
	if _, err := s.Subscribe(agentID, sm.IDRRC,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil,
		server.SubscriptionCallbacks{
			OnAdmitted: func(*e2ap.SubscriptionResponse) { close(admitted) },
			OnIndication: func(ev server.IndicationEvent) {
				e, err := sm.DecodeRRCEvent(ev.Env.IndicationPayload())
				if err == nil {
					events <- e
				}
			},
		}); err != nil {
		t.Fatal(err)
	}
	// Attach only once the agent has admitted the subscription.
	awaitClosed(t, admitted, "RRC subscription admitted")
	if _, err := bs.Cell.Attach(33, "imsi-33", "208.95", 20); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-events:
		if e.Kind != sm.RRCAttach || e.RNTI != 33 || e.PLMNID != "208.95" {
			t.Fatalf("event: %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no RRC attach notification")
	}
}

func TestHWPingEndToEnd(t *testing.T) {
	s, addr := startRIC(t)
	startBS(t, addr, sm.SchemeASN)
	agentID := waitAgents(t, s, 1)

	pongs := make(chan *sm.HWPing, 4)
	admitted := make(chan struct{})
	if _, err := s.Subscribe(agentID, sm.IDHelloWorld, sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil,
		server.SubscriptionCallbacks{
			OnAdmitted: func(*e2ap.SubscriptionResponse) { close(admitted) },
			OnIndication: func(ev server.IndicationEvent) {
				p, err := sm.DecodeHWPing(ev.Env.IndicationPayload())
				if err == nil {
					pongs <- p
				}
			},
		}); err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, admitted, "HW subscription admitted")
	ping := &sm.HWPing{Seq: 7, T0: time.Now().UnixNano(), Data: make([]byte, 100)}
	if err := s.Control(agentID, sm.IDHelloWorld, nil, sm.EncodeHWPing(sm.SchemeASN, ping), false, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-pongs:
		if p.Seq != 7 || p.T0 != ping.T0 {
			t.Fatalf("pong: %+v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pong")
	}
}

func TestStatsSubscriptionDelete(t *testing.T) {
	// Nothing is delivered after a delete is acknowledged (DESIGN.md §5):
	// an indication after OnDeleted fails the test. A second MAC
	// subscription on the same connection is the barrier: the server
	// dispatches one connection's messages in order, so once it has
	// delivered three indications after OnDeleted, any late indication
	// for the deleted subscription would already have been counted.
	var count, late, after atomic.Int64
	var deleted atomic.Bool
	acked, drained := make(chan struct{}), make(chan struct{})
	s, addr := startRIC(t)
	bs := startBS(t, addr, sm.SchemeASN)
	agentID := waitAgents(t, s, 1)
	macFn := bs.Fns[0].(*sm.StatsFunction)

	sub, err := s.Subscribe(agentID, sm.IDMACStats,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil,
		server.SubscriptionCallbacks{
			OnIndication: func(server.IndicationEvent) {
				if deleted.Load() {
					late.Add(1)
				}
				count.Add(1)
			},
			OnDeleted: func() {
				deleted.Store(true)
				close(acked)
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(agentID, sm.IDMACStats,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil,
		server.SubscriptionCallbacks{
			OnIndication: func(server.IndicationEvent) {
				if deleted.Load() && after.Add(1) == 3 {
					close(drained)
				}
			},
		}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (count.Load() < 10 || macFn.Subscriptions() < 2) {
		time.Sleep(2 * time.Millisecond)
	}
	if count.Load() < 10 {
		t.Fatal("no reports flowing")
	}
	if macFn.Subscriptions() != 2 {
		t.Fatalf("agent-side subscriptions: %d", macFn.Subscriptions())
	}
	if err := s.Unsubscribe(sub, sm.IDMACStats); err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, acked, "delete acknowledged")
	if macFn.Subscriptions() != 1 {
		t.Fatal("agent-side subscription not removed")
	}
	awaitClosed(t, drained, "three indications of the kept subscription after the delete")
	if n := late.Load(); n > 0 {
		t.Errorf("%d indications delivered after the delete was acknowledged", n)
	}
}

// awaitClosed waits for ch to close, failing after a generous bound.
func awaitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting: %s", what)
	}
}

func TestZeroPeriodRejected(t *testing.T) {
	s, addr := startRIC(t)
	startBS(t, addr, sm.SchemeASN)
	agentID := waitAgents(t, s, 1)
	failed := make(chan e2ap.Cause, 1)
	if _, err := s.Subscribe(agentID, sm.IDMACStats,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 0}), nil,
		server.SubscriptionCallbacks{OnFailure: func(c e2ap.Cause) { failed <- c }}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("zero period must be rejected")
	}
}
