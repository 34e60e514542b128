package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/obs"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/telemetry"
	"flexric/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	telemetry.Default.Counter("obstest.requests").Add(9)
	defer telemetry.Unregister("obstest")

	s, err := obs.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "obstest.requests") {
		t.Errorf("/metrics = %d %q", code, body)
	}

	code, body = get(t, base+"/snapshot.json")
	if code != http.StatusOK {
		t.Fatalf("/snapshot.json = %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot.json not JSON: %v\n%s", err, body)
	}

	code, body = get(t, base+"/traces?limit=3")
	if code != http.StatusOK {
		t.Fatalf("/traces = %d", code)
	}
	var trees []obs.TraceTree
	if err := json.Unmarshal([]byte(body), &trees); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}

	if code, _ := get(t, base+"/traces?limit=bogus"); code != http.StatusBadRequest {
		t.Errorf("/traces?limit=bogus = %d, want 400", code)
	}

	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

// TestTraceDemo is the PR's acceptance demo (`make trace-demo`): one
// monitoring control loop per scheme, observed through /traces. It
// asserts the end-to-end span tree — the indication root stamped in the
// agent, the transport send, the server dispatch child that crossed the
// wire inside the PDU, and the controller callback beneath it — all
// with non-zero durations, for both the asn and fb encodings.
func TestTraceDemo(t *testing.T) {
	schemes := []struct {
		e2 e2ap.Scheme
		sm sm.Scheme
	}{
		{e2ap.SchemeASN, sm.SchemeASN},
		{e2ap.SchemeFB, sm.SchemeFB},
	}
	for _, sc := range schemes {
		t.Run(string(sc.e2), func(t *testing.T) { runTraceDemo(t, sc.e2, sc.sm) })
	}
}

func runTraceDemo(t *testing.T, e2Scheme e2ap.Scheme, smScheme sm.Scheme) {
	trace.Reset()
	trace.SetSampleEvery(1)
	defer func() {
		trace.SetSampleEvery(0)
		trace.Reset()
	}()

	srv := server.New(server.Config{Scheme: e2Scheme})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: smScheme, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true})

	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: smScheme, Controller: addr,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: e2Scheme},
		SMs:   []uint16{sm.IDMACStats},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	if _, err := bs.Cell.Attach(1, "", "208.95", 20); err != nil {
		t.Fatal(err)
	}

	o, err := obs.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	// Drive the control loop until a complete trace shows up via HTTP
	// (the monitor's subscription is established asynchronously by the
	// connect hook, so early iterations may be untraced).
	deadline := time.Now().Add(10 * time.Second)
	for {
		bs.Step(20)
		time.Sleep(10 * time.Millisecond) // let dispatch + callback finish
		code, body := get(t, "http://"+o.Addr()+"/traces?limit=64")
		if code != http.StatusOK {
			t.Fatalf("/traces = %d", code)
		}
		var trees []obs.TraceTree
		if err := json.Unmarshal([]byte(body), &trees); err != nil {
			t.Fatalf("/traces not JSON: %v", err)
		}
		if findCompleteTrace(trees) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no complete trace after 10s; last /traces:\n%s", body)
		}
	}
}

// findCompleteTrace reports whether any trace links the full pipeline
// with non-zero per-stage durations:
//
//	agent.indication
//	├── transport.send
//	└── server.dispatch
//	    └── ctrl.monitor.store
func findCompleteTrace(trees []obs.TraceTree) bool {
	for _, tree := range trees {
		for _, root := range tree.Roots {
			if root.Name != "agent.indication" || root.DurationNS <= 0 {
				continue
			}
			var send, dispatch *obs.SpanNode
			for _, c := range root.Children {
				switch c.Name {
				case "transport.send":
					send = c
				case "server.dispatch":
					dispatch = c
				}
			}
			if send == nil || send.DurationNS <= 0 || dispatch == nil || dispatch.DurationNS <= 0 {
				continue
			}
			for _, c := range dispatch.Children {
				if c.Name == "ctrl.monitor.store" && c.DurationNS > 0 {
					return true
				}
			}
		}
	}
	return false
}

// BuildTraceTrees must keep orphans visible and order by recency.
func TestBuildTraceTrees(t *testing.T) {
	spans := []trace.SpanData{
		{TraceID: 1, SpanID: 11, Name: "old.root", StartNS: 100, DurationNS: 5},
		{TraceID: 2, SpanID: 21, Name: "root", StartNS: 200, DurationNS: 9},
		{TraceID: 2, SpanID: 22, Parent: 21, Name: "child", StartNS: 201, DurationNS: 3},
		{TraceID: 2, SpanID: 23, Parent: 99, Name: "orphan", StartNS: 202, DurationNS: 1},
	}
	trees := obs.BuildTraceTrees(spans, 1)
	if len(trees) != 1 || trees[0].TraceID != 2 {
		t.Fatalf("trees = %+v, want only trace 2", trees)
	}
	if trees[0].Spans != 3 || len(trees[0].Roots) != 2 {
		t.Fatalf("trace 2: spans=%d roots=%d, want 3 spans / 2 roots (orphan surfaces)", trees[0].Spans, len(trees[0].Roots))
	}
	root := trees[0].Roots[0]
	if root.Name != "root" || len(root.Children) != 1 || root.Children[0].Name != "child" {
		t.Errorf("tree shape wrong: %+v", root)
	}

	trees = obs.BuildTraceTrees(spans, 10)
	if len(trees) != 2 || trees[0].TraceID != 2 || trees[1].TraceID != 1 {
		ids := make([]string, len(trees))
		for i, tr := range trees {
			ids[i] = fmt.Sprint(tr.TraceID)
		}
		t.Errorf("recency order wrong: %v, want [2 1]", ids)
	}
}
