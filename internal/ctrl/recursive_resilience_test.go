package ctrl_test

import (
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/faultinject"
	"flexric/internal/ran"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
)

// TestVirtCtrlSouthReconnect: a tenant's proxied subscription survives a
// southbound infrastructure drop. The south agent's connection is
// force-closed by a fault plan after 150 frames; the agent redials
// (resilience backoff), the VirtCtrl's southbound server re-admits it
// within the retention window and replays the tenant-mapped south
// subscription, and the tenant's partitioned MAC stream resumes — the
// tenant never re-subscribes, never sees the fault.
func TestVirtCtrlSouthReconnect(t *testing.T) {
	scheme := sm.SchemeFB

	tenantSrv, tenantAddr := startSrv(t)
	vc, southAddr, err := ctrl.NewVirtCtrl(ctrl.VirtConfig{
		Scheme: scheme,
		Tenants: []ctrl.Tenant{
			{Name: "A", SLA: 1.0, Subscribers: map[uint16]bool{1: true}},
		},
		SouthAddr: "127.0.0.1:0",
		Resilience: &resilience.Config{
			KeepaliveInterval: 20 * time.Millisecond,
			RetainFor:         5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	// South infrastructure: agent wrapped in a one-shot drop plan, with
	// resilience so it redials on its own.
	plan := faultinject.MustParse("drop@150")
	b, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: scheme, Controller: southAddr,
		Agent: agent.Config{
			NodeID: station.Node(e2ap.NodeENB, 1),
			Resilience: &resilience.Config{
				KeepaliveInterval: 20 * time.Millisecond,
				Backoff:           resilience.BackoffPolicy{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
			},
			WrapConn: plan.WrapConn,
		},
		SMs: []uint16{sm.IDMACStats, sm.IDSliceCtrl},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.Step(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	defer func() { close(stop); <-done }()

	await(t, "infra agent at virt layer", func() bool { return b.Cell.SliceMode() == ran.SliceNVS })
	if err := vc.ConnectTenant(0, tenantAddr); err != nil {
		t.Fatal(err)
	}
	await(t, "virtual agent at tenant", func() bool { return len(tenantSrv.Agents()) == 1 })

	// The tenant subscribes ONCE; the count must keep rising across the
	// injected south drop.
	var inds atomic.Int64
	northID := tenantSrv.Agents()[0].ID
	if _, err := tenantSrv.Subscribe(northID, sm.IDMACStats,
		sm.EncodeTrigger(scheme, sm.Trigger{PeriodMS: 1}), nil,
		server.SubscriptionCallbacks{OnIndication: func(ev server.IndicationEvent) {
			if rep, err := sm.DecodeMACReport(ev.Env.IndicationPayload()); err == nil && len(rep.UEs) == 1 {
				inds.Add(1)
			}
		}}); err != nil {
		t.Fatal(err)
	}

	// The plan kills the south connection after 150 frames; an agent
	// emitting 1 ms-period indications burns through that almost
	// immediately, so reaching 400 indications on the SAME tenant
	// subscription proves the south leg died, reconnected, and was
	// replayed. If replay were broken the count would stall near 150.
	await(t, "tenant stream across south drop", func() bool { return inds.Load() >= 400 })
	if got := plan.DropsFired(); got != 1 {
		t.Fatalf("drop plan fired %d times, want 1", got)
	}
}
