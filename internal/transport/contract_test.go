package transport_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"flexric/internal/faultinject"
	"flexric/internal/resilience"
	"flexric/internal/transport"
)

// deadAfter is the dead-peer bound of the resilience-wrapped cases:
// long enough that no check's ordinary wait trips it under -race, short
// enough to keep the expiry check quick.
const deadAfter = 300 * time.Millisecond

// connCase is one Conn under the contract: a transport, optionally
// wrapped (both ends alike) by a fault plan or a resilience config.
type connCase struct {
	name string
	kind transport.Kind
	wrap func(transport.Conn) transport.Conn
	// expiry is what a Recv surfaces once its deadline passes with a
	// silent peer, no sooner than after expiryAfter.
	expiry      error
	expiryAfter time.Duration
}

func connCases() []connCase {
	res := resilience.Config{KeepaliveInterval: -1, DeadAfter: deadAfter}
	var cases []connCase
	for _, k := range []transport.Kind{transport.KindSCTPish, transport.KindPipe} {
		cases = append(cases,
			connCase{name: string(k), kind: k,
				expiry: transport.ErrTimeout},
			connCase{name: string(k) + "+faultinject", kind: k, wrap: faultinject.MustParse("seed=1").WrapConn,
				expiry: transport.ErrTimeout},
			// The dead-peer detector owns the deadline: a caller's
			// shorter one is replaced, and the silence surfaces as
			// ErrPeerDead after DeadAfter.
			connCase{name: string(k) + "+resilience", kind: k, wrap: res.WrapConn,
				expiry: resilience.ErrPeerDead, expiryAfter: deadAfter},
		)
	}
	return cases
}

// pair connects a (the conn under test) to its peer b, both wrapped
// alike, and returns the unwrapped a beside them.
func (c connCase) pair(t *testing.T) (a, b, rawA transport.Conn) {
	t.Helper()
	addr := "127.0.0.1:0"
	if c.kind == transport.KindPipe {
		addr = "contract-" + t.Name()
	}
	l, err := transport.Listen(c.kind, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		if s, err := l.Accept(); err == nil {
			accepted <- s
		}
		close(accepted)
	}()
	rawA, err = transport.Dial(c.kind, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rawB, ok := <-accepted
	if !ok {
		rawA.Close()
		t.Fatal("accept failed")
	}
	a, b = rawA, rawB
	if c.wrap != nil {
		a, b = c.wrap(rawA), c.wrap(rawB)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b, rawA
}

// recvAll receives len(want) messages on c and checks each one whole.
func recvAll(t *testing.T, c transport.Conn, want [][]byte) {
	t.Helper()
	var buf []byte
	for i, w := range want {
		got, err := c.Recv(buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("message %d: got %d bytes, want %d", i, len(got), len(w))
		}
		buf = got
	}
}

func mallocs(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestConnContract runs the same checks over every Conn the repository
// builds: the stream and pipe transports, bare and wrapped by
// faultinject.Plan.WrapConn and resilience.Config.WrapConn.
func TestConnContract(t *testing.T) {
	for _, c := range connCases() {
		stream := c.kind == transport.KindSCTPish
		t.Run(c.name, func(t *testing.T) {
			// Message boundaries hold in both directions, for single
			// sends and batches alike, from one byte to past the
			// largest pool class. The empty message is left out: the
			// resilience wrapper reserves it for keepalives.
			t.Run("boundaries", func(t *testing.T) {
				a, b, _ := c.pair(t)
				msgs := [][]byte{{0x01}, bytes.Repeat([]byte{0xAB}, 1500), bytes.Repeat([]byte{0x5C}, 100000)}
				batch := make([][]byte, 8)
				for i := range batch {
					batch[i] = bytes.Repeat([]byte{byte(i + 1)}, 1+97*i)
				}
				for _, dir := range [][2]transport.Conn{{a, b}, {b, a}} {
					from, to := dir[0], dir[1]
					for _, m := range msgs {
						if err := from.Send(m); err != nil {
							t.Fatal(err)
						}
					}
					if err := from.SendBatch(nil); err != nil {
						t.Fatalf("empty batch: %v", err)
					}
					if err := from.SendBatch(batch); err != nil {
						t.Fatal(err)
					}
					recvAll(t, to, append(append([][]byte{}, msgs...), batch...))
				}
			})

			// Recv(dst) takes dst back: over N frames a recycled
			// receive loop allocates at least N/2 fewer objects than
			// one passing nil (whose frames leave the pool for good),
			// and the stream reads a frame that fits into dst itself.
			t.Run("recycles", func(t *testing.T) {
				a, b, _ := c.pair(t)
				const n = 1000
				msg := bytes.Repeat([]byte{0x7E}, 512)
				loop := func(recycle bool) {
					var buf []byte
					for range n {
						if err := b.Send(msg); err != nil {
							t.Fatal(err)
						}
						got, err := a.Recv(buf)
						if err != nil || !bytes.Equal(got, msg) {
							t.Fatalf("Recv = %d bytes, %v", len(got), err)
						}
						if recycle {
							buf = got
						}
					}
				}
				loop(true) // warm up the pool
				recycled, fresh := mallocs(func() { loop(true) }), mallocs(func() { loop(false) })
				if recycled+n/2 > fresh {
					t.Fatalf("%d frames: %d mallocs recycling dst, %d passing nil", n, recycled, fresh)
				}
				if stream {
					dst := make([]byte, 0, 1024)
					if err := b.Send(msg); err != nil {
						t.Fatal(err)
					}
					got, err := a.Recv(dst)
					if err != nil {
						t.Fatal(err)
					}
					if unsafe.SliceData(got) != unsafe.SliceData(dst) {
						t.Fatal("a frame that fits dst was not read into it")
					}
				}
			})

			// A silent peer past the receive deadline surfaces as the
			// case's documented error.
			t.Run("deadline", func(t *testing.T) {
				a, _, _ := c.pair(t)
				if err := a.SetRecvDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
					t.Fatal(err)
				}
				t0 := time.Now()
				_, err := a.Recv(nil)
				el := time.Since(t0)
				if !errors.Is(err, c.expiry) {
					t.Fatalf("Recv from a silent peer = %v, want %v", err, c.expiry)
				}
				if el < c.expiryAfter || el > 5*time.Second {
					t.Fatalf("expired after %v, want %v to 5s", el, c.expiryAfter)
				}
			})

			// Close fails a pending Recv, every later call and the
			// peer's Recv with ErrClosed, and is idempotent.
			t.Run("close", func(t *testing.T) {
				a, b, _ := c.pair(t)
				pending := make(chan error, 1)
				go func() {
					_, err := a.Recv(nil)
					pending <- err
				}()
				time.Sleep(20 * time.Millisecond)
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-pending:
					if !errors.Is(err, transport.ErrClosed) {
						t.Fatalf("pending Recv = %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Close did not unblock a pending Recv")
				}
				if err := a.Close(); err != nil {
					t.Fatalf("second Close = %v", err)
				}
				if err := a.Send([]byte("x")); !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("Send after Close = %v, want ErrClosed", err)
				}
				if err := a.SendBatch([][]byte{[]byte("x")}); !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("SendBatch after Close = %v, want ErrClosed", err)
				}
				if _, err := a.Recv(nil); !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("Recv after Close = %v, want ErrClosed", err)
				}
				if _, err := b.Recv(nil); !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("peer Recv after Close = %v, want ErrClosed", err)
				}
			})

			// The reassembly time is 0 over the pipe, which hands
			// messages over whole, and positive over the stream;
			// wrappers pass it and the peer address through.
			t.Run("recv-duration", func(t *testing.T) {
				a, b, rawA := c.pair(t)
				if err := b.Send(bytes.Repeat([]byte{0x42}, 100000)); err != nil {
					t.Fatal(err)
				}
				if _, err := a.Recv(nil); err != nil {
					t.Fatal(err)
				}
				if d := a.LastRecvDuration(); stream != (d > 0) || d < 0 {
					t.Fatalf("LastRecvDuration = %v over %s", d, c.kind)
				}
				if got, want := a.RemoteAddr(), rawA.RemoteAddr(); got != want {
					t.Fatalf("RemoteAddr = %q, want %q", got, want)
				}
			})
		})
	}
}

// Wrapping with nothing to do returns the connection (or listener)
// itself.
func TestWrapNothingIsIdentity(t *testing.T) {
	for _, k := range []transport.Kind{transport.KindSCTPish, transport.KindPipe} {
		t.Run(string(k), func(t *testing.T) {
			a, _, _ := connCase{kind: k}.pair(t)
			var nilPlan *faultinject.Plan
			if nilPlan.WrapConn(a) != a {
				t.Error("nil plan WrapConn must be the identity")
			}
			if (resilience.Config{KeepaliveInterval: -1, DeadAfter: -1}).WrapConn(a) != a {
				t.Error("a config with keepalives and dead-peer detection off must not wrap")
			}
			l, err := transport.Listen(k, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if nilPlan.WrapListener(l) != l {
				t.Error("nil plan WrapListener must be the identity")
			}
		})
	}
}
