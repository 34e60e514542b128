package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"flexric/internal/obs/ws"
	"flexric/internal/tsdb"
)

func newStreamServer(t *testing.T, st *tsdb.Store, opts ...Option) *Server {
	t.Helper()
	opts = append([]Option{WithTSDB(st), WithStream(5)}, opts...)
	s, err := NewServer("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// readFrame reads WS messages until one with the wanted ch arrives.
func readFrame(t *testing.T, conn *ws.Conn, wantCh string, into any) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, payload, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		var probe struct {
			Ch string `json:"ch"`
		}
		if err := json.Unmarshal(payload, &probe); err != nil {
			t.Fatalf("bad frame %s: %v", payload, err)
		}
		if probe.Ch == wantCh {
			if into != nil {
				if err := json.Unmarshal(payload, into); err != nil {
					t.Fatalf("decode %s: %v", payload, err)
				}
			}
			return
		}
	}
	t.Fatalf("no %q frame before deadline", wantCh)
}

// TestStreamWSEndToEnd: dial the real HTTP endpoint, subscribe over
// the socket, and receive batched deltas; finish with a clean close.
func TestStreamWSEndToEnd(t *testing.T) {
	st := tsdb.New(tsdb.Config{Capacity: 256})
	s := newStreamServer(t, st)

	conn, err := ws.Dial("ws://"+s.Addr()+"/stream/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var hello helloFrame
	readFrame(t, conn, "hello", &hello)
	if hello.BaseFlushMS != 5 || len(hello.Channels) != 5 {
		t.Fatalf("hello = %+v", hello)
	}

	if err := conn.WriteText([]byte(`{"op":"subscribe","ch":"tsdb","glob":"mac.*"}`)); err != nil {
		t.Fatal(err)
	}
	// Appends race the subscribe; keep feeding until a frame lands.
	fld, _ := tsdb.ParseField("cqi")
	k := tsdb.SeriesKey{Agent: 1, Fn: 142, UE: 2, Field: fld}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.Append(k, time.Now().UnixNano(), float64(i))
			time.Sleep(time.Millisecond)
		}
	}()
	var frame tsdbFrame
	readFrame(t, conn, "tsdb", &frame)
	close(stop)
	wg.Wait()
	if len(frame.Series) != 1 || frame.Series[0].Name != "mac.1.2.cqi" {
		t.Fatalf("frame series = %+v", frame.Series)
	}

	// Clean close initiated by the client.
	if err := conn.CloseHandshake(ws.CloseNormal, "done", 2*time.Second); err != nil {
		t.Fatalf("close handshake: %v", err)
	}
	waitCond(t, "client detach", func() bool { return s.Hub().NumClients() == 0 })
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMethodEnforcement: every route is GET-only.
func TestMethodEnforcement(t *testing.T) {
	s := newStreamServer(t, tsdb.New(tsdb.Config{Capacity: 16}))
	for _, path := range []string{"/", "/metrics", "/snapshot.json", "/traces", "/tsdb/series", "/stream/ws"} {
		resp, err := http.Post("http://"+s.Addr()+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("POST %s: Allow = %q, want GET, HEAD", path, allow)
		}
	}
}

// TestDashboardServed: / returns the embedded dashboard, other paths 404.
func TestDashboardServed(t *testing.T) {
	s := newStreamServer(t, tsdb.New(tsdb.Config{Capacity: 16}))
	resp, err := http.Get("http://" + s.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body[:n]), "<!DOCTYPE html>") {
		t.Fatalf("dashboard: status %d body %q", resp.StatusCode, body[:n])
	}
	resp, err = http.Get("http://" + s.Addr() + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: status %d, want 404", resp.StatusCode)
	}
}

// TestShutdownSendsClose: graceful shutdown sends each WS client a
// going-away close frame before the listener dies.
func TestShutdownSendsClose(t *testing.T) {
	st := tsdb.New(tsdb.Config{Capacity: 16})
	s, err := NewServer("127.0.0.1:0", WithTSDB(st), WithStream(5))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ws.Dial("ws://"+s.Addr()+"/stream/ws", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello helloFrame
	readFrame(t, conn, "hello", &hello)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The client's next read ends in the server's close frame.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, _, err := conn.ReadMessage()
		if err == nil {
			continue
		}
		ce, ok := err.(*ws.CloseError)
		if !ok {
			t.Fatalf("read error %v, want CloseError", err)
		}
		if ce.Code != ws.CloseGoingAway {
			t.Fatalf("close code %d, want %d", ce.Code, ws.CloseGoingAway)
		}
		return
	}
	t.Fatal("no close frame after shutdown")
}

// TestHubStress exercises the hub under -race: concurrent appends,
// clients connecting/disconnecting, and live subscribe/unsubscribe
// churn, all while the flush loop runs at full speed.
func TestHubStress(t *testing.T) {
	st := tsdb.New(tsdb.Config{Capacity: 256})
	s := newStreamServer(t, st)

	stop := make(chan struct{})
	var wg, prodWg sync.WaitGroup

	// Producer: continuous appends across several series.
	fld, _ := tsdb.ParseField("cqi")
	prodWg.Add(1)
	go func() {
		defer prodWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := tsdb.SeriesKey{Agent: uint32(i % 4), Fn: 142, UE: uint16(i % 8), Field: fld}
			st.Append(k, time.Now().UnixNano(), float64(i))
			if i%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Churning clients: subscribe/unsubscribe while frames flow.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				conn, err := ws.Dial("ws://"+s.Addr()+"/stream/ws", 5*time.Second)
				if err != nil {
					select {
					case <-stop: // shutdown race at the end is fine
						return
					default:
						t.Errorf("dial: %v", err)
						return
					}
				}
				_ = conn.WriteText([]byte(`{"op":"subscribe","ch":"tsdb","glob":"*"}`))
				_ = conn.WriteText([]byte(`{"op":"subscribe","ch":"telemetry"}`))
				_ = conn.WriteText([]byte(`{"op":"subscribe","ch":"spans"}`))
				// Read a few frames, then churn the tsdb subscription.
				for i := 0; i < 5; i++ {
					if _, _, err := conn.ReadMessage(); err != nil {
						break
					}
				}
				_ = conn.WriteText([]byte(`{"op":"unsubscribe","ch":"tsdb"}`))
				_ = conn.WriteText([]byte(`{"op":"subscribe","ch":"tsdb","glob":"mac.*"}`))
				if round%2 == 0 {
					_ = conn.CloseHandshake(ws.CloseNormal, "", time.Second)
				}
				_ = conn.Close()
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress did not finish")
	}
	close(stop)
	prodWg.Wait()
	waitCond(t, "clients drain", func() bool { return s.Hub().NumClients() == 0 })
	// Hub.detach drops the client before it releases the client's
	// channel counters, so wait on the counter itself.
	waitCond(t, "tsdb sub count to drain", func() bool { return s.Hub().tsdbSubs.Load() == 0 })
}
