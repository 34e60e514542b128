package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"flexric/internal/telemetry"
)

func kinds() []struct {
	kind Kind
	addr func(i int) string
} {
	return []struct {
		kind Kind
		addr func(i int) string
	}{
		{KindSCTPish, func(int) string { return "127.0.0.1:0" }},
		{KindPipe, func(i int) string { return fmt.Sprintf("test-pipe-%d", i) }},
	}
}

// startEcho runs a listener whose first accepted connection echoes every
// message back, and returns the dial address.
func startEcho(t *testing.T, kind Kind, addr string) string {
	t.Helper()
	l, err := Listen(kind, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				defer c.Close()
				for {
					m, err := c.Recv(nil)
					if err != nil {
						return
					}
					if err := c.Send(m); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return l.Addr()
}

func TestEchoRoundTrip(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			addr := startEcho(t, k.kind, k.addr(i))
			c, err := Dial(k.kind, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			msgs := [][]byte{
				[]byte("hello"),
				bytes.Repeat([]byte{0xAB}, 1500),
				{}, // empty message must preserve its boundary
				bytes.Repeat([]byte{0x01}, 100000),
			}
			for _, m := range msgs {
				if err := c.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			for _, want := range msgs {
				got, err := c.Recv(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("got %d bytes, want %d", len(got), len(want))
				}
			}
		})
	}
}

func TestMessageBoundariesPreserved(t *testing.T) {
	// Many small sends must arrive as exactly as many messages — the SCTP
	// property TCP alone does not give.
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			addr := startEcho(t, k.kind, k.addr(100+i))
			c, err := Dial(k.kind, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const n = 200
			for j := 0; j < n; j++ {
				if err := c.Send([]byte{byte(j)}); err != nil {
					t.Fatal(err)
				}
			}
			for j := 0; j < n; j++ {
				m, err := c.Recv(nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(m) != 1 || m[0] != byte(j) {
					t.Fatalf("msg %d: %v", j, m)
				}
			}
		})
	}
}

func TestSenderDoesNotRetainBuffer(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			addr := startEcho(t, k.kind, k.addr(200+i))
			c, err := Dial(k.kind, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			buf := []byte{1, 2, 3, 4}
			if err := c.Send(buf); err != nil {
				t.Fatal(err)
			}
			buf[0] = 99 // mutate after send
			got, err := c.Recv(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != 1 {
				t.Fatal("transport retained the sender's buffer")
			}
		})
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			addr := startEcho(t, k.kind, k.addr(300+i))
			c, err := Dial(k.kind, addr)
			if err != nil {
				t.Fatal(err)
			}
			errCh := make(chan error, 1)
			go func() {
				_, err := c.Recv(nil)
				errCh <- err
			}()
			time.Sleep(10 * time.Millisecond)
			c.Close()
			select {
			case err := <-errCh:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("want ErrClosed, got %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv did not unblock on close")
			}
		})
	}
}

func TestDoubleCloseBothEnds(t *testing.T) {
	l, err := Listen(KindPipe, "double-close")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srvCh := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			srvCh <- c
		}
	}()
	c, err := Dial(KindPipe, "double-close")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-srvCh
	// Closing both ends, twice each, must not panic.
	c.Close()
	c.Close()
	srv.Close()
	srv.Close()
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			l, err := Listen(k.kind, k.addr(400+i))
			if err != nil {
				t.Fatal(err)
			}
			errCh := make(chan error, 1)
			go func() {
				_, err := l.Accept()
				errCh <- err
			}()
			time.Sleep(10 * time.Millisecond)
			l.Close()
			select {
			case err := <-errCh:
				if err == nil {
					t.Fatal("Accept should fail after Close")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Accept did not unblock")
			}
		})
	}
}

func TestDialUnknownPipe(t *testing.T) {
	if _, err := Dial(KindPipe, "no-such-pipe"); err == nil {
		t.Fatal("dialing unbound pipe must fail")
	}
}

func TestPipeNameReuseAfterClose(t *testing.T) {
	l, err := Listen(KindPipe, "reuse-me")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Listen(KindPipe, "reuse-me"); err == nil {
		t.Fatal("duplicate bind must fail")
	}
	l.Close()
	l2, err := Listen(KindPipe, "reuse-me")
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	l2.Close()
}

func TestUnknownKind(t *testing.T) {
	if _, err := Listen(Kind("bogus"), "x"); err == nil {
		t.Fatal("unknown listen kind must fail")
	}
	if _, err := Dial(Kind("bogus"), "x"); err == nil {
		t.Fatal("unknown dial kind must fail")
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	addr := startEcho(t, KindSCTPish, "127.0.0.1:0")
	c, err := Dial(KindSCTPish, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, MaxMessageSize+1)
	if err := c.Send(big); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("want ErrMessageTooLarge, got %v", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	// Multiple goroutines sending on one conn must interleave whole
	// messages, never corrupt frames (paper §4.4: "POSIX sockets are
	// thread-safe, and sending messages from multiple threads is also
	// feasible").
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			addr := startEcho(t, k.kind, k.addr(500+i))
			c, err := Dial(k.kind, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const senders, per = 8, 50
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					msg := bytes.Repeat([]byte{byte(s)}, 64)
					for j := 0; j < per; j++ {
						if err := c.Send(msg); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			recvDone := make(chan struct{})
			go func() {
				defer close(recvDone)
				for j := 0; j < senders*per; j++ {
					m, err := c.Recv(nil)
					if err != nil {
						t.Errorf("recv: %v", err)
						return
					}
					if len(m) != 64 {
						t.Errorf("frame corrupted: %d bytes", len(m))
						return
					}
					for _, b := range m {
						if b != m[0] {
							t.Error("interleaved frame content")
							return
						}
					}
				}
			}()
			wg.Wait()
			select {
			case <-recvDone:
			case <-time.After(5 * time.Second):
				t.Fatal("receiver stalled")
			}
		})
	}
}

func BenchmarkSendRecvSCTPish(b *testing.B) { benchSendRecv(b, KindSCTPish, "127.0.0.1:0") }

func BenchmarkSendRecvPipe(b *testing.B) { benchSendRecv(b, KindPipe, "bench-pipe") }

func benchSendRecv(b *testing.B, kind Kind, addr string) {
	l, err := Listen(kind, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv(nil)
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil {
				return
			}
		}
	}()
	c, err := Dial(kind, l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	msg := bytes.Repeat([]byte{0x7E}, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportHotPath measures the framed-TCP echo round trip and
// cross-checks it against the telemetry layer's own view of the same
// packets: the reported p95_send_us comes from the
// transport.sctpish.send_latency histogram, so a telemetry-induced
// regression shows up in both ns/op and the histogram's self-measured
// cost.
func BenchmarkTransportHotPath(b *testing.B) {
	telemetry.Reset()
	lis, err := Listen(KindSCTPish, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// Recycled-buffer echo: Send does not retain m, so the frame just
		// echoed is immediately reusable as the next receive buffer.
		var buf []byte
		for {
			m, err := RecvBuf(c, buf)
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil {
				return
			}
			buf = m
		}
	}()
	c, err := Dial(KindSCTPish, lis.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	msg := bytes.Repeat([]byte{0x5C}, 1500)
	var rbuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(msg); err != nil {
			b.Fatal(err)
		}
		m, err := RecvBuf(c, rbuf)
		if err != nil {
			b.Fatal(err)
		}
		rbuf = m
	}
	b.StopTimer()
	h := telemetry.TakeSnapshot().Histogram("transport.sctpish.send_latency")
	if h.Count == 0 {
		b.Fatal("no send latency recorded")
	}
	b.ReportMetric(float64(h.Percentile(95).Microseconds()), "p95_send_us")
}

// TestOversizeFrameHeaderOnRecv drives a malformed frame header (length
// beyond MaxMessageSize) over a raw TCP socket: the receiving side must
// reject it before allocating the claimed buffer.
func TestOversizeFrameHeaderOnRecv(t *testing.T) {
	l, err := Listen(KindSCTPish, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxMessageSize+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	c := <-accepted
	defer c.Close()
	if _, err := c.Recv(nil); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("want ErrMessageTooLarge, got %v", err)
	}
}

// TestSendRecvAfterClose pins the teardown contract for both transports:
// once a connection is closed locally, Send and Recv return ErrClosed.
func TestSendRecvAfterClose(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			addr := startEcho(t, k.kind, k.addr(700+i))
			c, err := Dial(k.kind, addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := c.Send([]byte("after close")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after Close: want ErrClosed, got %v", err)
			}
			if _, err := c.Recv(nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv after Close: want ErrClosed, got %v", err)
			}
		})
	}
}

// TestCloseDuringTraffic closes a connection while senders and a
// receiver are active; every goroutine must unwind with ErrClosed (or a
// cleanly delivered message), never deadlock. Exercised under -race by
// make verify.
func TestCloseDuringTraffic(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			addr := startEcho(t, k.kind, k.addr(800+i))
			c, err := Dial(k.kind, addr)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			msg := bytes.Repeat([]byte{0xAB}, 256)
			for s := 0; s < 4; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if err := c.Send(msg); err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Errorf("send: %v", err)
							}
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := c.Recv(nil); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("recv: %v", err)
						}
						return
					}
				}
			}()
			time.Sleep(20 * time.Millisecond)
			c.Close()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("goroutines did not unwind after Close")
			}
		})
	}
}

// A stream frame whose bytes trickle in one at a time is reassembled
// whole, the next frame's boundary holds, and the reassembly time runs
// from the first payload byte: a pause mid-payload shows in it.
func TestStreamReassemblesTrickledFrames(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	sc := newStreamConn(near)
	defer sc.Close()
	const pause = 20 * time.Millisecond
	payloads := [][]byte{bytes.Repeat([]byte{0xA5}, 300), []byte("next")}
	go func() {
		for _, p := range payloads {
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(p)))
			frame = append(frame, p...)
			for i := range frame {
				if i == 6 {
					time.Sleep(pause)
				}
				if _, err := far.Write(frame[i : i+1]); err != nil {
					return
				}
			}
		}
	}()
	for i, want := range payloads {
		got, err := sc.Recv(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		if d := sc.LastRecvDuration(); i == 0 && d < pause {
			t.Fatalf("LastRecvDuration = %v across a %v mid-payload pause", d, pause)
		}
	}
}
