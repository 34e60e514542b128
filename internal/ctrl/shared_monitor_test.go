package ctrl_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"flexric/internal/broker"
	"flexric/internal/ctrl"
	"flexric/internal/sm"
	"flexric/internal/tsdb"
)

// TestSharedMonitorSubscriptions wires one agent exposing MAC, RLC,
// PDCP, SC and TC the way `flexric-ctrl -slicing -tc -a1` does: the
// process monitor on every monitoring SM, the slicing controller reading
// it through WithMonitor, and the TC controller forwarding its RLC
// reports (the A1 loop adds no E2 subscription). Each (agent, function)
// is subscribed exactly once: 5 subscriptions, where a controller that
// re-subscribes to MAC and RLC opens 7.
func TestSharedMonitorSubscriptions(t *testing.T) {
	brk, brkAddr, err := broker.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	s, addr := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{
		Scheme: sm.SchemeFB, PeriodMS: 10, Layers: ctrl.MonAll, Decode: true, TSDB: tsdb.New(tsdb.Config{}),
	})
	sc, err := ctrl.NewSlicingController(s, sm.SchemeFB, "127.0.0.1:0", ctrl.WithMonitor(mon))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	tcc, err := ctrl.NewTCController(mon, brkAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcc.Close()
	if sc.Monitor() != mon || sc.TSDB() != mon.TSDB() {
		t.Fatal("slicing controller does not read the shared monitor")
	}

	xa, err := broker.Dial(brkAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer xa.Close()
	rlcCh, err := xa.Subscribe("stats.rlc.0", 64)
	if err != nil {
		t.Fatal(err)
	}
	tcCh, err := xa.Subscribe("stats.tc.0", 64)
	if err != nil {
		t.Fatal(err)
	}

	b := startBS(t, addr, 1, sm.SchemeFB, 25)
	if _, err := b.Cell.Attach(1, "", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID

	// The broker still carries both TC xApp feeds.
	for _, feed := range []struct {
		name string
		ch   <-chan broker.Message
	}{{"RLC", rlcCh}, {"TC", tcCh}} {
		select {
		case m := <-feed.ch:
			if feed.name == "RLC" {
				if _, err := sm.DecodeRLCReport(m.Payload); err != nil {
					t.Fatalf("broker RLC payload: %v", err)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s stats via broker", feed.name)
		}
	}

	// /stats serves the shared monitor's latest MAC report: its cell
	// time lies between the monitor's reports read before and after.
	url := fmt.Sprintf("http://%s/stats?agent=%d", sc.Addr(), id)
	await(t, "stats from the shared monitor", func() bool {
		before := mon.MAC(id)
		resp, err := http.Get(url)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var got sm.MACReport
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&got) != nil {
			return false
		}
		after := mon.MAC(id)
		return before != nil && got.CellTimeMS >= before.CellTimeMS && got.CellTimeMS <= after.CellTimeMS
	})

	if n := s.NumSubscriptions(); n != 5 {
		t.Fatalf("E2 subscriptions = %d, want 5 (MAC, RLC, PDCP, SC, TC once each)", n)
	}
}

// TestSharedMonitorRequirements: a shared monitor must carry what the
// controller reads from it, and one built without TSDB answers
// /stats/agg from its own store: 404 before any sample.
func TestSharedMonitorRequirements(t *testing.T) {
	brk, brkAddr, err := broker.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	s, _ := startSrv(t)
	rlcOnly := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, Layers: ctrl.MonRLC, Decode: true})
	if _, err := ctrl.NewSlicingController(s, sm.SchemeFB, "127.0.0.1:0", ctrl.WithMonitor(rlcOnly)); err == nil {
		t.Fatal("slicing accepted a monitor without MAC")
	}
	macOnly := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, Layers: ctrl.MonMAC, Decode: true})
	if _, err := ctrl.NewTCController(macOnly, brkAddr, "127.0.0.1:0"); err == nil {
		t.Fatal("TC accepted a monitor without RLC")
	}

	sc, err := ctrl.NewSlicingController(s, sm.SchemeFB, "127.0.0.1:0", ctrl.WithMonitor(macOnly))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	resp, err := http.Get("http://" + sc.Addr() + "/stats/agg?agent=0&ue=1&field=cqi")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/stats/agg before any sample: %s", resp.Status)
	}
}

// TestRESTBodyLimit: every northbound route with a body reads at most
// 64 KiB of it and answers 413 beyond that, even when the body also
// holds an unknown field; it answers 415 for a body that is not JSON,
// and 400 for an unknown field or trailing data. /tc's 405 names its
// method.
func TestRESTBodyLimit(t *testing.T) {
	brk, brkAddr, err := broker.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	s, _ := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, Decode: true})
	sc, err := ctrl.NewSlicingController(s, sm.SchemeFB, "127.0.0.1:0", ctrl.WithMonitor(mon))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	tcc, err := ctrl.NewTCController(mon, brkAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcc.Close()

	huge := strings.Repeat("x", 65<<10)
	slices, assoc, tc := "http://"+sc.Addr()+"/slices?agent=0", "http://"+sc.Addr()+"/assoc?agent=0", "http://"+tcc.Addr()+"/tc?agent=0"
	for _, c := range []struct {
		url, ctype, body string
		code             int
	}{
		{slices, "application/json", `{"algo":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{assoc, "application/json", `{"rnti":1,"pad":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{tc, "application/json", `{"op":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{tc, "text/plain", `{"op":"addQueue","rnti":1}`, http.StatusUnsupportedMediaType},
		{slices, "application/json", `{"algo":"none","bogus":1}`, http.StatusBadRequest},
		{assoc, "application/json", `{"rnti":1,"sliceId":2,"bogus":1}`, http.StatusBadRequest},
		{tc, "application/json", `{"op":"addQueue","rnti":1,"bogus":1}`, http.StatusBadRequest},
		{slices, "application/json", `{"algo":"none"} {}`, http.StatusBadRequest},
		{assoc, "application/json", `{"rnti":1,"sliceId":2}x`, http.StatusBadRequest},
		{tc, "application/json", `{"op":"addQueue","rnti":1}{"op":"addQueue"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(c.url, c.ctype, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s with a %d B %s body: %s, want %d", c.url, len(c.body), c.ctype, resp.Status, c.code)
		}
	}

	resp, err := http.Get("http://" + tcc.Addr() + "/tc?agent=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /tc: %s allow=%q", resp.Status, resp.Header.Get("Allow"))
	}
}
