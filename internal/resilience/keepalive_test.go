package resilience

import (
	"errors"
	"testing"
	"time"

	"flexric/internal/transport"
)

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

// An idle wrapped connection must emit zero-length keepalive frames.
func TestKeepaliveEmission(t *testing.T) {
	client, server := pipePair(t, "res-emit")
	cfg := Config{KeepaliveInterval: 30 * time.Millisecond, DeadAfter: -1}
	wc := cfg.WrapConn(client)
	defer wc.Close()
	deadline := time.After(3 * time.Second)
	got := make(chan []byte, 1)
	go func() {
		b, err := server.Recv(nil)
		if err == nil {
			got <- b
		}
	}()
	select {
	case b := <-got:
		if len(b) != 0 {
			t.Fatalf("first idle frame = %q, want zero-length keepalive", b)
		}
	case <-deadline:
		t.Fatal("no keepalive within 3s of idling")
	}
}

// Application traffic suppresses keepalives, and incoming keepalives
// are filtered out of Recv.
func TestKeepaliveFilteredAndSuppressed(t *testing.T) {
	client, server := pipePair(t, "res-filter")
	cfg := Config{KeepaliveInterval: 40 * time.Millisecond, DeadAfter: -1}
	wc := cfg.WrapConn(client)
	defer wc.Close()

	// Keep the client busy for several intervals: the peer must see
	// only application frames.
	stop := time.Now().Add(200 * time.Millisecond)
	n := 0
	for time.Now().Before(stop) {
		if err := wc.Send([]byte("data")); err != nil {
			t.Fatal(err)
		}
		n++
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < n; i++ {
		b, err := server.Recv(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatal("keepalive emitted while traffic was flowing")
		}
	}

	// Keepalives from the peer are invisible to the wrapped Recv.
	if err := server.Send(nil); err != nil {
		t.Fatal(err)
	}
	if err := server.Send([]byte("real")); err != nil {
		t.Fatal(err)
	}
	b, err := wc.Recv(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "real" {
		t.Fatalf("Recv = %q, want the keepalive filtered out", b)
	}
}

// A peer that goes fully silent must surface as ErrPeerDead within
// DeadAfter.
func TestDeadPeerDetection(t *testing.T) {
	client, _ := pipePair(t, "res-dead")
	cfg := Config{KeepaliveInterval: -1, DeadAfter: 80 * time.Millisecond}
	wc := cfg.WrapConn(client)
	defer wc.Close()
	t0 := time.Now()
	_, err := wc.Recv(nil)
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("Recv from silent peer = %v, want ErrPeerDead", err)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("dead-peer detection took %v", elapsed)
	}
}

// A peer that only sends keepalives stays alive: each keepalive re-arms
// the deadline, so Recv keeps blocking until real data arrives.
func TestKeepalivesKeepPeerAlive(t *testing.T) {
	client, server := pipePair(t, "res-alive")
	cfg := Config{KeepaliveInterval: -1, DeadAfter: 120 * time.Millisecond}
	wc := cfg.WrapConn(client)
	defer wc.Close()

	// The peer idles past DeadAfter in total, but never past it between
	// keepalives; then speaks.
	go func() {
		for i := 0; i < 6; i++ {
			time.Sleep(50 * time.Millisecond)
			if err := server.Send(nil); err != nil {
				return
			}
		}
		_ = server.Send([]byte("finally"))
	}()
	b, err := wc.Recv(nil)
	if err != nil {
		t.Fatalf("Recv = %v, want keepalives to hold the peer alive", err)
	}
	if string(b) != "finally" {
		t.Fatalf("Recv = %q", b)
	}
}
