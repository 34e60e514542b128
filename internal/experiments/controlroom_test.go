package experiments

import (
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/obs"
	"flexric/internal/obs/ws"
	"flexric/internal/sm"
	"flexric/internal/trace"
	"flexric/internal/tsdb"
)

// TestControlRoomDemo is the control room's acceptance demo (`make
// controlroom-demo`): under both codecs, a headless WebSocket client
// dials the live /stream/ws endpoint of a running monitoring loop,
// subscribes to mac.* deltas (with backfill) plus the topology and
// span channels, receives a sustained stream of batched delta frames,
// and disconnects with a clean RFC 6455 close handshake.
func TestControlRoomDemo(t *testing.T) {
	const wantDeltaFrames = 5
	schemes := []struct {
		e2 e2ap.Scheme
		sm sm.Scheme
	}{
		{e2ap.SchemeASN, sm.SchemeASN},
		{e2ap.SchemeFB, sm.SchemeFB},
	}
	for _, sc := range schemes {
		t.Run(string(sc.e2), func(t *testing.T) {
			trace.SetSampleEvery(1)
			defer trace.SetSampleEvery(0)
			store := tsdb.New(tsdb.Config{Capacity: 1024})
			srv, addr, err := StartServer(sc.e2)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{
				Scheme: sc.sm, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true, TSDB: store,
			})
			topo := ctrl.NewTopology(srv, ctrl.TopoWithMonitor(mon))
			o, err := obs.NewServer("127.0.0.1:0",
				obs.WithTSDB(store), obs.WithStream(10),
				obs.WithTopology(func() any { return topo.Snapshot() }))
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			da, err := StartDummyAgent(1, addr, sc.e2, sc.sm, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer da.Close()
			// The load driver ticks the dummy agent every millisecond
			// until the test ends.
			var stop atomic.Bool
			ticking := make(chan struct{})
			go func() {
				defer close(ticking)
				(&loadRig{senders: []*DummyAgent{da}}).drive(time.Minute, stop.Load)
			}()
			defer func() { stop.Store(true); <-ticking }()
			if !WaitUntil(waitShort, func() bool {
				n, _ := mon.Counters()
				return n > 10 && store.NumSeries() > 0
			}) {
				t.Fatal("indications not reaching the store")
			}

			// The dummy agent replays pre-encoded wire bytes and never
			// starts spans, so drive the span channel with a small
			// control-loop-shaped trace generator.
			stopSpans := make(chan struct{})
			defer close(stopSpans)
			go func() {
				tick := time.NewTicker(5 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stopSpans:
						return
					case <-tick.C:
					}
					sp := trace.StartRoot("demo.loop")
					child := trace.StartChild(sp.Context(), "demo.work")
					child.End()
					sp.End()
				}
			}()

			conn, err := ws.Dial("ws://"+o.Addr()+"/stream/ws", 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			for _, req := range []string{
				`{"op":"subscribe","ch":"tsdb","glob":"mac.*","window_ms":2000,"flush_ms":50}`,
				`{"op":"subscribe","ch":"topology","flush_ms":50}`,
				`{"op":"subscribe","ch":"spans","flush_ms":50}`,
			} {
				if err := conn.WriteText([]byte(req)); err != nil {
					t.Fatal(err)
				}
			}

			var (
				hello, backfill, topoOK, spansOK bool
				deltaFrames, samples             int
			)
			deadline := time.Now().Add(waitShort)
			done := func() bool {
				return deltaFrames >= wantDeltaFrames && backfill && topoOK && spansOK
			}
			for time.Now().Before(deadline) && !done() {
				_, payload, err := conn.ReadMessage()
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				var frame struct {
					Ch       string `json:"ch"`
					Backfill bool   `json:"backfill"`
					Error    string `json:"error"`
					Series   []struct {
						Name    string       `json:"name"`
						Samples [][2]float64 `json:"samples"`
					} `json:"series"`
					Spans []struct {
						Name string `json:"name"`
					} `json:"spans"`
					Topology struct {
						Agents []struct {
							Functions []string `json:"functions"`
						} `json:"agents"`
					} `json:"topology"`
				}
				if err := json.Unmarshal(payload, &frame); err != nil {
					t.Fatalf("bad frame %s: %v", payload, err)
				}
				switch frame.Ch {
				case "hello":
					hello = true
				case "error":
					t.Fatalf("protocol error frame: %s", frame.Error)
				case "tsdb":
					for _, s := range frame.Series {
						if !globLikeMAC(s.Name) {
							t.Fatalf("series %q leaked past the mac.* glob", s.Name)
						}
						samples += len(s.Samples)
					}
					if frame.Backfill {
						backfill = true
					} else if len(frame.Series) > 0 {
						deltaFrames++
					}
				case "topology":
					if len(frame.Topology.Agents) == 1 {
						topoOK = true
					}
				case "spans":
					if len(frame.Spans) > 0 {
						spansOK = true
					}
				}
			}
			if !hello {
				t.Error("no hello frame")
			}
			if !backfill {
				t.Error("no backfill frame despite window_ms")
			}
			if deltaFrames < wantDeltaFrames {
				t.Errorf("delta frames = %d, want >= %d", deltaFrames, wantDeltaFrames)
			}
			if samples == 0 {
				t.Error("no samples delivered")
			}
			if !topoOK {
				t.Error("no topology frame with the connected agent")
			}
			if !spansOK {
				t.Error("no span frame despite sampling every trace")
			}

			// Clean close: the server must echo our close frame.
			if err := conn.CloseHandshake(ws.CloseNormal, "demo done", 2*time.Second); err != nil {
				t.Fatalf("close handshake: %v", err)
			}
			if !WaitUntil(waitShort, func() bool { return o.Hub().NumClients() == 0 }) {
				t.Error("hub did not release the client after close")
			}
			t.Logf("%s: %d delta frames, %d samples, backfill=%v topo=%v spans=%v",
				sc.e2, deltaFrames, samples, backfill, topoOK, spansOK)
		})
	}
}

// globLikeMAC mirrors the demo's mac.* subscription for leak checks.
func globLikeMAC(name string) bool {
	return len(name) >= 4 && name[:4] == "mac."
}
