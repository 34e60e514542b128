package ws

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// newPair returns a connected (server, client) Conn pair over loopback
// TCP, plus the client's raw socket for byte-level tests.
func newPair(t *testing.T) (*Conn, *Conn, net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := lis.Accept()
		ch <- res{c, err}
	}()
	cc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	srv := &Conn{c: r.c, br: bufio.NewReader(r.c)}
	cli := &Conn{c: cc, br: bufio.NewReader(cc), client: true}
	t.Cleanup(func() { srv.Close(); cli.Close() })
	return srv, cli, cc
}

func TestHandshakeAndEcho(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, msg, err := c.ReadMessage()
			if err != nil {
				return
			}
			if err := c.WriteMessage(op, msg); err != nil {
				return
			}
		}
	}))
	defer hs.Close()

	c, err := Dial(hs.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []byte(`{"op":"subscribe","ch":"tsdb"}`)
	if err := c.WriteText(want); err != nil {
		t.Fatal(err)
	}
	op, got, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || !bytes.Equal(got, want) {
		t.Fatalf("echo = %d %q, want text %q", op, got, want)
	}
	if err := c.CloseHandshake(CloseNormal, "done", time.Second); err != nil {
		t.Fatalf("close handshake: %v", err)
	}
}

func TestUpgradeRejectsPlainGet(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Error("Upgrade accepted a non-upgrade request")
		}
	}))
	defer hs.Close()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("plain GET = %d, want 400", resp.StatusCode)
	}
}

// TestFragmentedMessage reassembles a three-fragment text message with a
// ping interleaved between fragments (RFC 6455 §5.4: control frames MAY
// be injected in the middle of a fragmented message).
func TestFragmentedMessage(t *testing.T) {
	srv, cli, _ := newPair(t)
	got := make(chan []byte, 1)
	srvErr := make(chan error, 1)
	go func() {
		op, msg, err := srv.ReadMessage()
		if err != nil {
			srvErr <- err
			return
		}
		if op != OpText {
			srvErr <- errors.New("wrong opcode")
			return
		}
		got <- msg
	}()
	if err := cli.writeFrame(OpText, false, []byte("one ")); err != nil {
		t.Fatal(err)
	}
	if err := cli.writeFrame(OpContinuation, false, []byte("two ")); err != nil {
		t.Fatal(err)
	}
	if err := cli.WritePing([]byte("keepalive")); err != nil {
		t.Fatal(err)
	}
	if err := cli.writeFrame(OpContinuation, true, []byte("three")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg) != "one two three" {
			t.Fatalf("assembled %q", msg)
		}
	case err := <-srvErr:
		t.Fatal(err)
	case <-time.After(2 * time.Second):
		t.Fatal("server did not assemble the message")
	}
	// The interleaved ping must have been answered; the client reader
	// counts the pong. Unblock it with a data frame.
	if err := srv.WriteText([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if n := cli.Pongs(); n != 1 {
		t.Fatalf("client pongs = %d, want 1", n)
	}
}

// TestContinuationWithoutStart: a continuation frame with no message in
// progress is a protocol error (close 1002).
func TestContinuationWithoutStart(t *testing.T) {
	srv, cli, _ := newPair(t)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := srv.ReadMessage()
		errCh <- err
	}()
	if err := cli.writeFrame(OpContinuation, true, []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("orphan continuation accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not reject orphan continuation")
	}
}

// TestUnmaskedClientFrameRejected: the server must fail the connection
// with status 1002 when a client frame arrives unmasked (§5.1).
func TestUnmaskedClientFrameRejected(t *testing.T) {
	srv, _, raw := newPair(t)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := srv.ReadMessage()
		errCh <- err
	}()
	// Raw unmasked text frame: FIN|text, len 3, "abc".
	if _, err := raw.Write([]byte{0x81, 0x03, 'a', 'b', 'c'}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("unmasked client frame accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not reject unmasked frame")
	}
	// The server's parting close frame must carry 1002.
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	var hdr [2]byte
	if _, err := io.ReadFull(raw, hdr[:]); err != nil {
		t.Fatalf("reading close frame: %v", err)
	}
	if Opcode(hdr[0]&0x0F) != OpClose {
		t.Fatalf("opcode = %#x, want close", hdr[0])
	}
	payload := make([]byte, hdr[1]&0x7F)
	if _, err := io.ReadFull(raw, payload); err != nil {
		t.Fatal(err)
	}
	if len(payload) < 2 || binary.BigEndian.Uint16(payload) != CloseProtocolError {
		t.Fatalf("close payload = %v, want code 1002", payload)
	}
}

// TestMidFrameCut: a connection cut in the middle of a frame surfaces
// as a read error, not a hang or a phantom message.
func TestMidFrameCut(t *testing.T) {
	srv, _, raw := newPair(t)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := srv.ReadMessage()
		errCh <- err
	}()
	// Masked text frame claiming 16 payload bytes, but only 3 arrive.
	if _, err := raw.Write([]byte{0x81, 0x80 | 16, 1, 2, 3, 4, 'x', 'y', 'z'}); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("mid-frame cut produced a message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server hung on mid-frame cut")
	}
}

func TestCloseHandshake(t *testing.T) {
	srv, cli, _ := newPair(t)
	srvDone := make(chan error, 1)
	go func() {
		_, _, err := srv.ReadMessage()
		srvDone <- err
	}()
	if err := cli.CloseHandshake(CloseNormal, "bye", 2*time.Second); err != nil {
		t.Fatalf("client close handshake: %v", err)
	}
	select {
	case err := <-srvDone:
		var ce *CloseError
		if !errors.As(err, &ce) {
			t.Fatalf("server got %v, want CloseError", err)
		}
		if ce.Code != CloseNormal || ce.Reason != "bye" {
			t.Fatalf("server close = %d %q, want 1000 \"bye\"", ce.Code, ce.Reason)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not observe the close")
	}
}

// TestExtendedLengths exercises the 16-bit and 64-bit payload length
// encodings in both directions.
func TestExtendedLengths(t *testing.T) {
	for _, n := range []int{125, 126, 200, 0xFFFF, 0x10000, 70_000} {
		srv, cli, _ := newPair(t)
		payload := bytes.Repeat([]byte{0xA5}, n)
		type result struct {
			msg []byte
			err error
		}
		got := make(chan result, 1)
		go func() {
			_, msg, err := srv.ReadMessage()
			got <- result{msg, err}
		}()
		if err := cli.WriteMessage(OpBinary, payload); err != nil {
			t.Fatalf("n=%d write: %v", n, err)
		}
		select {
		case r := <-got:
			if r.err != nil {
				t.Fatalf("n=%d read: %v", n, r.err)
			}
			if !bytes.Equal(r.msg, payload) {
				t.Fatalf("n=%d payload mismatch (%d bytes back)", n, len(r.msg))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("n=%d timed out", n)
		}
		srv.Close()
		cli.Close()
	}
}

// TestOversizeMessage: exceeding MaxMessageSize fails the connection
// with close code 1009, including across fragments.
func TestOversizeMessage(t *testing.T) {
	srv, cli, _ := newPair(t)
	srv.MaxMessageSize = 64
	errCh := make(chan error, 1)
	go func() {
		_, _, err := srv.ReadMessage()
		errCh <- err
	}()
	if err := cli.writeFrame(OpBinary, false, bytes.Repeat([]byte{1}, 48)); err != nil {
		t.Fatal(err)
	}
	if err := cli.writeFrame(OpContinuation, true, bytes.Repeat([]byte{2}, 48)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("oversize message accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not enforce the size limit")
	}
}

// sinkConn is a net.Conn that keeps what is written to it in out (or
// drops it when out is nil); a Conn reads through its own br.
type sinkConn struct {
	net.Conn
	out *bytes.Buffer
}

func (s sinkConn) Write(b []byte) (int, error) {
	if s.out != nil {
		s.out.Write(b)
	}
	return len(b), nil
}

func (sinkConn) Close() error { return nil }

// wire returns the bytes of the frames write sends as a client (masked)
// or a server (unmasked).
func wire(client bool, write func(c *Conn) error) []byte {
	var out bytes.Buffer
	c := &Conn{c: sinkConn{out: &out}, client: client}
	if err := write(c); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzWSFrame reads arbitrary bytes as the frames a peer sends, in both
// roles. Whatever arrives, ReadMessage must not panic, must return
// either an error or a message within the size limit, and must allocate
// at most 64 bytes per input byte: no length read off the wire sizes a
// buffer before the bytes arrive. The slack absorbs the heap's per-span
// accounting. Seeded with the frames of the tests above and a 14-byte
// masked header that claims a 1 MiB payload.
func FuzzWSFrame(f *testing.F) {
	for _, client := range []bool{false, true} {
		f.Add(wire(client, func(c *Conn) error {
			for _, err := range []error{
				c.writeFrame(OpText, false, []byte("one ")),
				c.writeFrame(OpContinuation, false, []byte("two ")),
				c.WritePing([]byte("keepalive")),
				c.writeFrame(OpContinuation, true, []byte("three")),
			} {
				if err != nil {
					return err
				}
			}
			return nil
		}))
		f.Add(wire(client, func(c *Conn) error { return c.writeFrame(OpContinuation, true, []byte("orphan")) }))
		f.Add(wire(client, func(c *Conn) error { return c.WriteClose(CloseNormal, "bye") }))
		for _, n := range []int{125, 126, 200, 0xFFFF, 0x10000, 70_000} {
			f.Add(wire(client, func(c *Conn) error { return c.WriteMessage(OpBinary, bytes.Repeat([]byte{0xA5}, n)) }))
		}
		f.Add(wire(client, func(c *Conn) error {
			if err := c.writeFrame(OpBinary, false, bytes.Repeat([]byte{1}, 48)); err != nil {
				return err
			}
			return c.writeFrame(OpContinuation, true, bytes.Repeat([]byte{2}, 48))
		}))
	}
	f.Add([]byte{0x81, 0x03, 'a', 'b', 'c'})
	f.Add([]byte{0x81, 0x80 | 16, 1, 2, 3, 4, 'x', 'y', 'z'})
	f.Add([]byte{0x82, 0x80 | 127, 0, 0, 0, 0, 0, 0x10, 0, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, client := range []bool{false, true} {
			c := &Conn{c: sinkConn{}, br: bufio.NewReader(bytes.NewReader(in)), client: client}
			var err error
			n := allocatedBy(func() {
				for err == nil {
					var msg []byte
					if _, msg, err = c.ReadMessage(); err == nil && len(msg) > c.maxMsg() {
						t.Fatalf("client=%v: %d-byte message past the %d-byte limit", client, len(msg), c.maxMsg())
					}
				}
			})
			if n > 64*uint64(len(in))+64<<10 {
				t.Fatalf("client=%v: reading %d bytes allocated %d bytes: %x", client, len(in), n, in)
			}
		}
	})
}
