package ctrl_test

import (
	"testing"
	"time"

	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/sm"
)

func TestXAppHostMergingAndFanOut(t *testing.T) {
	s, addr := startSrv(t)
	host := ctrl.NewXAppHost(s)
	b := startBS(t, addr, 1, sm.SchemeFB, 25)
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	if err := b.Cell.AddTraffic(1, &ran.Saturating{Flow: ran.FiveTuple{DstIP: 1}, RateBytesPerMS: 3000}); err != nil {
		t.Fatal(err)
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	agentID := s.Agents()[0].ID

	x1, err := host.Deploy("kpimon-1", 16)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := host.Deploy("kpimon-2", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.Deploy("kpimon-1", 16); err == nil {
		t.Fatal("duplicate deploy must fail")
	}
	if len(host.XApps()) != 2 {
		t.Fatalf("xapps: %v", host.XApps())
	}

	trigger := sm.EncodeTrigger(sm.SchemeFB, sm.Trigger{PeriodMS: 1})
	actions := []e2ap.Action{{ID: 1, Type: e2ap.ActionReport}}
	if err := x1.Subscribe(agentID, sm.IDMACStats, trigger, actions); err != nil {
		t.Fatal(err)
	}
	// Identical subscription from the second xApp: merged, not re-sent.
	if err := x2.Subscribe(agentID, sm.IDMACStats, trigger, actions); err != nil {
		t.Fatal(err)
	}
	if host.MergedSubscriptions() != 1 {
		t.Fatalf("merged subscriptions: %d, want 1", host.MergedSubscriptions())
	}

	// Both inboxes receive the same stream.
	for _, x := range []*ctrl.HostedXApp{x1, x2} {
		select {
		case ev := <-x.Inbox:
			if ev.FnID != sm.IDMACStats {
				t.Fatalf("%s: event %+v", x.Name(), ev)
			}
			if _, err := sm.DecodeMACReport(ev.Payload); err != nil {
				t.Fatalf("%s: payload: %v", x.Name(), err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no events", x.Name())
		}
	}

	// The SM database holds the latest payload.
	await(t, "latest payload in DB", func() bool {
		return host.Latest(agentID, sm.IDMACStats) != nil
	})
	if _, err := sm.DecodeMACReport(host.Latest(agentID, sm.IDMACStats)); err != nil {
		t.Fatalf("latest: %v", err)
	}

	// Free-form DB.
	host.DBPut("policy/threshold", []byte("42"))
	if string(host.DBGet("policy/threshold")) != "42" {
		t.Fatal("db get/put")
	}
	if host.DBGet("missing") != nil {
		t.Fatal("missing key must be nil")
	}

	// One member leaves: the E2 subscription survives for the other.
	if err := x1.Unsubscribe(agentID, sm.IDMACStats, trigger, actions); err != nil {
		t.Fatal(err)
	}
	if host.MergedSubscriptions() != 1 {
		t.Fatalf("subscription dropped too early: %d", host.MergedSubscriptions())
	}
	drain(x2.Inbox)
	select {
	case <-x2.Inbox:
	case <-time.After(10 * time.Second):
		t.Fatal("surviving member stopped receiving")
	}
	if err := x1.Unsubscribe(agentID, sm.IDMACStats, trigger, actions); err == nil {
		t.Fatal("double unsubscribe must fail")
	}

	// Last member leaves: the E2 subscription is deleted.
	if err := x2.Unsubscribe(agentID, sm.IDMACStats, trigger, actions); err != nil {
		t.Fatal(err)
	}
	await(t, "merged subscription removed", func() bool {
		return host.MergedSubscriptions() == 0
	})
}

func drain(ch chan ctrl.HostEvent) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

func TestXAppHostUndeployCleansUp(t *testing.T) {
	s, addr := startSrv(t)
	host := ctrl.NewXAppHost(s)
	startBS(t, addr, 1, sm.SchemeFB, 25)
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	agentID := s.Agents()[0].ID

	x, err := host.Deploy("temp", 8)
	if err != nil {
		t.Fatal(err)
	}
	trigger := sm.EncodeTrigger(sm.SchemeFB, sm.Trigger{PeriodMS: 1})
	if err := x.Subscribe(agentID, sm.IDMACStats, trigger, nil); err != nil {
		t.Fatal(err)
	}
	if host.MergedSubscriptions() != 1 {
		t.Fatal("subscription missing")
	}
	if err := host.Undeploy("temp"); err != nil {
		t.Fatal(err)
	}
	await(t, "cleanup", func() bool { return host.MergedSubscriptions() == 0 })
	if len(host.XApps()) != 0 {
		t.Fatal("xapp still listed")
	}
	// Inbox closed.
	if _, ok := <-x.Inbox; ok {
		// Drain any buffered events; channel must eventually close.
		for range x.Inbox {
		}
	}
	if err := host.Undeploy("temp"); err == nil {
		t.Fatal("double undeploy must fail")
	}
}

func TestXAppHostControl(t *testing.T) {
	s, addr := startSrv(t)
	host := ctrl.NewXAppHost(s)
	b := startBS(t, addr, 1, sm.SchemeFB, 25)
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	agentID := s.Agents()[0].ID
	x, err := host.Deploy("tc-xapp", 8)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte, 1)
	if err := x.Control(agentID, sm.IDTrafficCtrl, nil,
		sm.EncodeTCControl(sm.SchemeFB, &sm.TCControl{Op: sm.OpAddQueue, RNTI: 1}),
		func(o []byte, err error) {
			if err != nil {
				t.Errorf("control: %v", err)
			}
			out <- o
		}); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-out:
		oc, err := sm.DecodeTCOutcome(o)
		if err != nil || oc.Queue != 1 {
			t.Fatalf("outcome %+v %v", oc, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no control outcome")
	}
}
