package ctrl_test

import (
	"sync/atomic"
	"testing"

	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/transport"
)

// northSub is one subscription a parent controller holds on a proxy,
// with the events it has seen.
type northSub struct {
	id       server.SubID
	admitted atomic.Bool
	deleted  atomic.Bool
	inds     atomic.Int64
}

func subscribeNorth(t *testing.T, srv *server.Server, agent server.AgentID, fnID uint16) *northSub {
	t.Helper()
	ns := &northSub{}
	id, err := srv.Subscribe(agent, fnID, sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil,
		server.SubscriptionCallbacks{
			OnAdmitted:   func(*e2ap.SubscriptionResponse) { ns.admitted.Store(true) },
			OnDeleted:    func() { ns.deleted.Store(true) },
			OnIndication: func(server.IndicationEvent) { ns.inds.Add(1) },
		})
	if err != nil {
		t.Fatal(err)
	}
	ns.id = id
	await(t, "north subscription admitted", ns.admitted.Load)
	return ns
}

func unsubscribeNorth(t *testing.T, srv *server.Server, ns *northSub, fnID uint16) {
	t.Helper()
	if err := srv.Unsubscribe(ns.id, fnID); err != nil {
		t.Fatal(err)
	}
	await(t, "north subscription deleted", ns.deleted.Load)
}

// awaitMore waits until ns has seen more indications than it had on entry.
func awaitMore(t *testing.T, what string, ns *northSub) {
	t.Helper()
	from := ns.inds.Load()
	await(t, what, func() bool { return ns.inds.Load() > from+3 })
}

// checkParking subscribes twice through a proxy that has no south agent
// yet: both legs are admitted and parked, deleting one sends nothing
// south, and once the agent connects only the other is placed.
func checkParking(t *testing.T, parent *server.Server, south *server.Server, southAddr string) {
	t.Helper()
	await(t, "proxy at parent", func() bool { return len(parent.Agents()) == 1 })
	proxyID := parent.Agents()[0].ID
	kept := subscribeNorth(t, parent, proxyID, sm.IDMACStats)
	dropped := subscribeNorth(t, parent, proxyID, sm.IDMACStats)
	unsubscribeNorth(t, parent, dropped, sm.IDMACStats)
	if n := south.NumSubscriptions(); n != 0 {
		t.Fatalf("south subscriptions after deleting a parked leg = %d, want 0", n)
	}

	startBS(t, southAddr, 1, sm.SchemeASN, 25)
	awaitMore(t, "parked leg placed on connect", kept)
	if n := south.NumSubscriptions(); n != 1 {
		t.Fatalf("south subscriptions = %d, want 1 (the deleted leg must stay unplaced)", n)
	}
	if n := dropped.inds.Load(); n != 0 {
		t.Fatalf("deleted leg delivered %d indications", n)
	}
}

func TestProxyParkedRelay(t *testing.T) {
	parent, parentAddr := startSrv(t)
	relay, err := ctrl.NewRelay("127.0.0.1:0", parentAddr, e2ap.SchemeASN, transport.KindSCTPish,
		[]uint16{sm.IDMACStats})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	checkParking(t, parent, relay.Server(), relay.SouthAddr())
}

func TestProxyParkedVirtCtrl(t *testing.T) {
	tenantSrv, tenantAddr := startSrv(t)
	vc, southAddr, err := ctrl.NewVirtCtrl(ctrl.VirtConfig{
		Scheme:    sm.SchemeASN,
		Tenants:   []ctrl.Tenant{{Name: "A", SLA: 1.0, Subscribers: map[uint16]bool{1: true}}},
		SouthAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	if err := vc.ConnectTenant(0, tenantAddr); err != nil {
		t.Fatal(err)
	}
	checkParking(t, tenantSrv, ctrl.SouthServer(vc), southAddr)
}

// TestVirtCtrlLegKeys: north RequestIDs are unique only per tenant
// connection and function, so a delete must remove exactly its own leg
// when two tenants use the same RequestID, and when one tenant holds
// legs on two functions.
func TestVirtCtrlLegKeys(t *testing.T) {
	srvA, addrA := startSrv(t)
	srvB, addrB := startSrv(t)
	vc, southAddr, err := ctrl.NewVirtCtrl(ctrl.VirtConfig{
		Scheme: sm.SchemeASN,
		Tenants: []ctrl.Tenant{
			{Name: "A", SLA: 0.5, Subscribers: map[uint16]bool{1: true}},
			{Name: "B", SLA: 0.5, Subscribers: map[uint16]bool{2: true}},
		},
		SouthAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	south := ctrl.SouthServer(vc)
	startBS(t, southAddr, 1, sm.SchemeASN, 25)
	await(t, "infra agent at virt layer", func() bool { return len(south.Agents()) == 1 })
	if err := vc.ConnectTenant(0, addrA); err != nil {
		t.Fatal(err)
	}
	if err := vc.ConnectTenant(1, addrB); err != nil {
		t.Fatal(err)
	}
	await(t, "tenants see the virtual agent", func() bool {
		return len(srvA.Agents()) == 1 && len(srvB.Agents()) == 1
	})
	virtA, virtB := srvA.Agents()[0].ID, srvB.Agents()[0].ID

	t.Run("same RequestID, two tenants", func(t *testing.T) {
		a := subscribeNorth(t, srvA, virtA, sm.IDMACStats)
		b := subscribeNorth(t, srvB, virtB, sm.IDMACStats)
		if a.id.Req != b.id.Req {
			t.Fatalf("tenant RequestIDs %v and %v differ; the case needs a collision", a.id.Req, b.id.Req)
		}
		awaitMore(t, "tenant A stream", a)
		awaitMore(t, "tenant B stream", b)
		if n := south.NumSubscriptions(); n != 2 {
			t.Fatalf("south subscriptions = %d, want 2", n)
		}
		unsubscribeNorth(t, srvA, a, sm.IDMACStats)
		await(t, "tenant A's leg removed", func() bool { return south.NumSubscriptions() == 1 })
		awaitMore(t, "tenant B stream after A's delete", b)
		unsubscribeNorth(t, srvB, b, sm.IDMACStats)
		await(t, "tenant B's leg removed", func() bool { return south.NumSubscriptions() == 0 })
	})

	t.Run("one tenant, two functions", func(t *testing.T) {
		mac := subscribeNorth(t, srvA, virtA, sm.IDMACStats)
		sc := subscribeNorth(t, srvA, virtA, sm.IDSliceCtrl)
		awaitMore(t, "MAC stream", mac)
		awaitMore(t, "slice status stream", sc)
		if n := south.NumSubscriptions(); n != 2 {
			t.Fatalf("south subscriptions = %d, want 2", n)
		}
		unsubscribeNorth(t, srvA, mac, sm.IDMACStats)
		await(t, "MAC leg removed", func() bool { return south.NumSubscriptions() == 1 })
		awaitMore(t, "slice status stream after the MAC delete", sc)
		unsubscribeNorth(t, srvA, sc, sm.IDSliceCtrl)
		await(t, "slice status leg removed", func() bool { return south.NumSubscriptions() == 0 })
	})
}
