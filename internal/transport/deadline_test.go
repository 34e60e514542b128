package transport

import (
	"errors"
	"testing"
	"time"
)

// A silent peer must surface as ErrTimeout once a deadline is set, and a
// cleared deadline must restore indefinite blocking.
func TestRecvDeadlineExpires(t *testing.T) {
	for i, k := range kinds() {
		k := k
		t.Run(string(k.kind), func(t *testing.T) {
			addr := startEcho(t, k.kind, k.addr(i+710))
			c, err := Dial(k.kind, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.SetRecvDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			t0 := time.Now()
			_, err = c.Recv(nil) // the echo peer never speaks first
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("Recv with silent peer = %v, want ErrTimeout", err)
			}
			if elapsed := time.Since(t0); elapsed > 5*time.Second {
				t.Fatalf("timeout took %v, deadline not honored", elapsed)
			}
		})
	}
}

// A deadline in the future must not interfere with a normal round trip,
// and queued data must win over an already-expired deadline (the socket
// semantics: buffered bytes are readable after timeout).
func TestRecvDeadlineDelivery(t *testing.T) {
	for i, k := range kinds() {
		k := k
		t.Run(string(k.kind), func(t *testing.T) {
			addr := startEcho(t, k.kind, k.addr(i+720))
			c, err := Dial(k.kind, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.SetRecvDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			msg := []byte("deadline-ok")
			if err := c.Send(msg); err != nil {
				t.Fatal(err)
			}
			got, err := c.Recv(nil)
			if err != nil {
				t.Fatalf("Recv under future deadline: %v", err)
			}
			if string(got) != string(msg) {
				t.Fatalf("got %q, want %q", got, msg)
			}
			// Clearing the deadline restores indefinite blocking.
			if err := c.SetRecvDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			if err := c.Send(msg); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Recv(nil); err != nil {
				t.Fatalf("Recv after clearing deadline: %v", err)
			}
		})
	}
}

// DialTimeout must honor the caller's bound instead of the package
// default; an unroutable address should fail within the margin.
func TestDialTimeoutConfigurable(t *testing.T) {
	// 198.51.100.0/24 (TEST-NET-2) is reserved: connection attempts
	// black-hole on real networks, exercising the timeout rather than a
	// refusal. Sandboxed environments may intercept the route, in which
	// case only the "no hang" property is checkable.
	t0 := time.Now()
	c, err := DialTimeout(KindSCTPish, "198.51.100.1:1", 100*time.Millisecond)
	if err == nil {
		c.Close()
		t.Skip("TEST-NET-2 reachable in this environment; timeout not exercisable")
	}
	if elapsed := time.Since(t0); elapsed > 3*time.Second {
		t.Fatalf("DialTimeout(100ms) took %v", elapsed)
	}
}

// Dial must remain the DefaultDialTimeout convenience.
func TestDialDefaultsTimeout(t *testing.T) {
	if DefaultDialTimeout != 5*time.Second {
		t.Fatalf("DefaultDialTimeout = %v, want 5s (the documented seed default)", DefaultDialTimeout)
	}
	addr := startEcho(t, KindSCTPish, "127.0.0.1:0")
	c, err := Dial(KindSCTPish, addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
