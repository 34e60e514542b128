package ctrl_test

import (
	"encoding/json"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/tsdb"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTopologySnapshot: the snapshot reflects connected agents, their
// function inventory, the live subscription count, and monitor state —
// and serializes to JSON cleanly.
func TestTopologySnapshot(t *testing.T) {
	srv := server.New(server.Config{Scheme: e2ap.SchemeFB})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	store := tsdb.New(tsdb.Config{Capacity: 128})
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{
		Scheme: sm.SchemeFB, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true, TSDB: store,
	})
	topo := ctrl.NewTopology(srv, ctrl.TopoWithMonitor(mon))

	b, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: sm.SchemeFB, Controller: addr,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 7), Scheme: e2ap.SchemeFB},
		SMs:   []uint16{sm.IDMACStats},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Cell.Attach(1, "", "208.95", 20); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "subscription", func() bool { return srv.NumSubscriptions() == 1 })
	waitFor(t, "ingest", func() bool {
		b.Step(5)
		n, _ := mon.Counters()
		return n > 0 && store.NumSeries() > 0
	})

	snap := topo.Snapshot()
	if len(snap.Agents) != 1 {
		t.Fatalf("agents = %+v, want 1", snap.Agents)
	}
	ag := snap.Agents[0]
	if len(ag.Functions) != 1 || ag.Functions[0] != "mac" {
		t.Errorf("functions = %v, want [mac]", ag.Functions)
	}
	if ag.Node == "" || ag.Addr == "" {
		t.Errorf("agent identity empty: %+v", ag)
	}
	if snap.Subscriptions != 1 {
		t.Errorf("subscriptions = %d, want 1", snap.Subscriptions)
	}
	if snap.Indications == 0 || snap.Series == 0 {
		t.Errorf("monitor state missing: indications=%d series=%d", snap.Indications, snap.Series)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}

	// Disconnect: the agent leaves the snapshot.
	b.Close()
	waitFor(t, "agent removal", func() bool { return len(topo.Snapshot().Agents) == 0 })
}

// TestTopologyWithFederation: the federation tier rides the snapshot
// verbatim and serializes under the "federation" key.
func TestTopologyWithFederation(t *testing.T) {
	srv := server.New(server.Config{Scheme: e2ap.SchemeFB})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fed := map[string]any{"members": []string{"s0", "s1"}, "failovers": 1}
	topo := ctrl.NewTopology(srv, ctrl.TopoWithFederation(func() any { return fed }))
	snap := topo.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(out["federation"], &got); err != nil {
		t.Fatalf("federation key missing or malformed: %v", err)
	}
	if got["failovers"] != float64(1) {
		t.Fatalf("federation tier = %v", got)
	}
	// Without the option the key is omitted entirely.
	b2, _ := json.Marshal(ctrl.NewTopology(srv).Snapshot())
	var out2 map[string]json.RawMessage
	_ = json.Unmarshal(b2, &out2)
	if _, ok := out2["federation"]; ok {
		t.Fatal("federation key present without TopoWithFederation")
	}
}

// TestFnName covers known and unknown function IDs.
func TestFnName(t *testing.T) {
	if got := ctrl.FnName(sm.IDMACStats); got != "mac" {
		t.Errorf("FnName(mac) = %q", got)
	}
	if got := ctrl.FnName(9999); got != "fn9999" {
		t.Errorf("FnName(9999) = %q", got)
	}
}
