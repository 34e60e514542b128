package federation

import (
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/server"
	"flexric/internal/sm"
)

// TestShardParkedLeg: a root leg for an agent that has not connected
// to the shard yet is admitted and parked; deleting a parked leg sends
// nothing south, and the surviving leg is placed when its agent (and
// not some other agent) connects.
func TestShardParkedLeg(t *testing.T) {
	sh, err := NewShard(ShardConfig{
		Name: "s0", E2Scheme: e2ap.SchemeFB, SMScheme: sm.SchemeFB,
		SouthAddr: "127.0.0.1:0", ObsAddr: "127.0.0.1:0", PeriodMS: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	root := server.New(server.Config{Scheme: e2ap.SchemeFB})
	rootAddr, err := root.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	if err := sh.ConnectRoot(rootAddr); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "shard at root", 5*time.Second, func() bool { return len(root.Agents()) == 1 })
	shardID := root.Agents()[0].ID

	type leg struct {
		id       server.SubID
		admitted atomic.Bool
		deleted  atomic.Bool
		inds     atomic.Int64
	}
	place := func(key uint64) *leg {
		l := &leg{}
		trig := WrapTrigger(key, sm.EncodeTrigger(sm.SchemeFB, sm.Trigger{PeriodMS: 5}))
		id, err := root.Subscribe(shardID, sm.IDMACStats, trig, nil, server.SubscriptionCallbacks{
			OnAdmitted:   func(*e2ap.SubscriptionResponse) { l.admitted.Store(true) },
			OnDeleted:    func() { l.deleted.Store(true) },
			OnIndication: func(server.IndicationEvent) { l.inds.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		l.id = id
		waitUntil(t, "parked leg admitted", 5*time.Second, l.admitted.Load)
		return l
	}
	kept, dropped, other := place(7), place(7), place(8)
	if err := root.Unsubscribe(dropped.id, sm.IDMACStats); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "parked leg deleted", 5*time.Second, dropped.deleted.Load)

	ring := NewRing(64, "s0")
	ta := startTestAgent(t, 7, schemes{e2ap.SchemeFB, sm.SchemeFB}, ring, map[string]string{"s0": sh.SouthAddr()})
	defer ta.Close()
	waitUntil(t, "parked leg placed", 5*time.Second, func() bool { return kept.inds.Load() > 3 })
	if n, m := dropped.inds.Load(), other.inds.Load(); n != 0 || m != 0 {
		t.Fatalf("deleted leg got %d indications, leg for another agent got %d; want 0 and 0", n, m)
	}
}
