package faultinject

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"flexric/internal/transport"
)

// pipePair dials a fresh in-process pipe and returns both ends plus the
// listener-side accept. The server end echoes nothing by itself; tests
// drive both ends directly for determinism.
func pipePair(t *testing.T, name string) (client, server transport.Conn) {
	t.Helper()
	l, err := transport.Listen(transport.KindPipe, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := transport.Dial(transport.KindPipe, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, <-accepted
}

// A drop@N directive must kill the connection on the operation after N
// frames, and exactly once.
func TestDropAfterFrames(t *testing.T) {
	p := MustParse("drop@3")
	client, server := pipePair(t, "fi-drop")
	fc := p.WrapConn(client)

	// 3 frames pass (the pipe buffers them, so sends do not block).
	for i := 0; i < 3; i++ {
		if err := fc.Send([]byte("x")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := fc.Send([]byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("4th send = %v, want ErrClosed", err)
	}
	if got := p.DropsFired(); got != 1 {
		t.Fatalf("DropsFired = %d, want 1", got)
	}
	// The drop closed the inner conn: the peer still drains the three
	// buffered frames (socket semantics), then sees teardown.
	for i := 0; i < 3; i++ {
		if _, err := server.Recv(nil); err != nil {
			t.Fatalf("draining frame %d: %v", i, err)
		}
	}
	if _, err := server.Recv(nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("peer Recv after drop = %v, want ErrClosed", err)
	}
}

// Drop directives share one fired-index: each directive fires exactly
// once across all connections wrapped by the plan, in order.
func TestDropsSharedAcrossConns(t *testing.T) {
	p := MustParse("drop@0,drop@0")
	for i := 0; i < 2; i++ {
		client, _ := pipePair(t, fmt.Sprintf("fi-shared-%d", i))
		fc := p.WrapConn(client)
		if err := fc.Send([]byte("x")); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("conn %d first send = %v, want ErrClosed", i, err)
		}
	}
	if got := p.DropsFired(); got != 2 {
		t.Fatalf("DropsFired = %d, want 2", got)
	}
	// Budget exhausted: a third connection lives.
	client, server := pipePair(t, "fi-shared-3")
	fc := p.WrapConn(client)
	if err := fc.Send([]byte("alive")); err != nil {
		t.Fatalf("post-budget send: %v", err)
	}
	if b, err := server.Recv(nil); err != nil || string(b) != "alive" {
		t.Fatalf("peer got %q, %v", b, err)
	}
}

// A stall must hold back delivery so an armed receive deadline expires:
// the silent-peer signature the dead-peer detector looks for. The
// stream transport is used because its expired deadline fails the read
// even when the frame has already arrived — exactly a peer that went
// silent from the reader's point of view.
func TestStallTripsRecvDeadline(t *testing.T) {
	p := MustParse("stall@1=250ms")
	l, err := transport.Listen(transport.KindSCTPish, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := transport.Dial(transport.KindSCTPish, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	fc := p.WrapConn(client)
	if err := server.Send([]byte("delayed")); err != nil {
		t.Fatal(err)
	}
	if err := fc.SetRecvDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err = fc.Recv(nil)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("Recv under stall = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(t0); elapsed < 250*time.Millisecond {
		t.Fatalf("stall not imposed: Recv returned after %v", elapsed)
	}
	// The stall fires once; with the deadline cleared the frame arrives.
	if err := fc.SetRecvDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if b, err := fc.Recv(nil); err != nil || string(b) != "delayed" {
		t.Fatalf("post-stall Recv = %q, %v", b, err)
	}
}

// sendlat must inject jittered latency on every send, bounded by the
// documented [0.5x, 1.5x) envelope.
func TestSendLatency(t *testing.T) {
	p := MustParse("seed=3,sendlat=20ms")
	client, server := pipePair(t, "fi-lat")
	fc := p.WrapConn(client)
	go func() {
		for {
			if _, err := server.Recv(nil); err != nil {
				return
			}
		}
	}()
	const n = 5
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fc.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(t0); elapsed < n*10*time.Millisecond {
		t.Fatalf("5 sends with sendlat=20ms took only %v", elapsed)
	}
}

// A blackout window must slam the door on freshly accepted connections
// without the server ever seeing them, then recover.
func TestListenerBlackout(t *testing.T) {
	p := MustParse("blackout@1=2")
	inner, err := transport.Listen(transport.KindSCTPish, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := p.WrapListener(inner)
	defer l.Close()

	accepted := make(chan transport.Conn, 4)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()

	dial := func() transport.Conn {
		t.Helper()
		c, err := transport.Dial(transport.KindSCTPish, l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	// Accept event 1: healthy round trip.
	c1 := dial()
	s1 := <-accepted
	if err := c1.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if b, err := s1.Recv(nil); err != nil || string(b) != "one" {
		t.Fatalf("first conn: %q, %v", b, err)
	}

	// Accept events 2 and 3 fall in the blackout: the dialer's conn dies
	// on first read, and the server's Accept never returns them.
	for i := 0; i < 2; i++ {
		c := dial()
		if _, err := c.Recv(nil); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("blackout dial %d: Recv = %v, want ErrClosed", i, err)
		}
	}

	// Accept event 4: the window has passed.
	c4 := dial()
	s4 := <-accepted
	if err := c4.Send([]byte("four")); err != nil {
		t.Fatal(err)
	}
	if b, err := s4.Recv(nil); err != nil || string(b) != "four" {
		t.Fatalf("post-blackout conn: %q, %v", b, err)
	}
	select {
	case c := <-accepted:
		t.Fatalf("server saw a blacked-out conn: %v", c.RemoteAddr())
	default:
	}
}
