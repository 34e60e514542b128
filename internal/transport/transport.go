// Package transport provides the message-oriented transport abstraction of
// the FlexRIC SDK (§4.3 item 1: "a wrapper is created to abstract the
// communication interface allowing to easily switch between different
// transport protocols").
//
// O-RAN mandates SCTP for E2. Kernel SCTP is not portable, so the default
// implementation ("sctpish") layers SCTP's relevant semantics — reliable,
// ordered, *message-boundary-preserving* delivery — over TCP with a
// length-prefixed frame header. An in-process pipe transport is provided
// for tests and for single-process deployments where a controller and its
// agents are co-located (the zero-overhead configuration).
//
// Every connection is instrumented through internal/telemetry: frames
// and bytes in both directions plus send/receive latency, per connection
// and aggregated per transport kind (see telemetry.go).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"flexric/internal/bufpool"
)

// Errors returned by transports.
var (
	// ErrClosed reports use of a closed connection or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrMessageTooLarge reports a frame exceeding MaxMessageSize.
	ErrMessageTooLarge = errors.New("transport: message too large")
	// ErrTimeout reports a Recv that exceeded the receive deadline set
	// via SetRecvDeadline. On the stream transport the frame may have been
	// partially consumed, so the connection must be closed afterwards —
	// the deadline exists to unmask dead peers, not to pace reads.
	ErrTimeout = errors.New("transport: recv timeout")
)

// MaxMessageSize caps a single E2 message frame (16 MiB).
const MaxMessageSize = 16 << 20

// DefaultDialTimeout bounds Dial's connection establishment when the
// caller does not choose a timeout (see DialTimeout).
const DefaultDialTimeout = 5 * time.Second

// Conn is a reliable, ordered, message-oriented connection: the one
// contract every transport and every wrapper (fault injection,
// resilience) implements. Send and Recv may be used concurrently with
// each other; neither may be called concurrently with itself, and
// SendBatch counts as a Send. See docs/PERFORMANCE.md for the buffer
// ownership rules.
type Conn interface {
	// Send transmits one message. The implementation does not retain b.
	Send(b []byte) error
	// SendBatch transmits msgs in order, each as its own message. On
	// the stream transport every header and payload goes out in one
	// vectored write, so a TTI's worth of indications costs one
	// syscall. Like Send it retains no msgs element; an error may leave
	// the batch partially transmitted, and the connection is then
	// broken.
	SendBatch(msgs [][]byte) error
	// Recv returns the next message, recycling dst: ownership of dst
	// transfers to the connection, and the caller must use only the
	// returned slice, which may or may not alias dst. nil dst receives
	// into a fresh pooled buffer. The canonical receive loop
	//
	//	buf, err = c.Recv(buf)
	//
	// receives every frame into a recycled buffer after warm-up and
	// allocates nothing.
	Recv(dst []byte) ([]byte, error)
	// SetRecvDeadline sets the absolute deadline for Recv calls: a Recv
	// in progress (or started) past it fails with ErrTimeout, and the
	// zero time clears it. Deadlines are the dead-peer primitive: a
	// silent peer surfaces as ErrTimeout instead of blocking Recv
	// forever.
	SetRecvDeadline(t time.Time) error
	// LastRecvDuration returns the reassembly duration of the most
	// recent Recv — from the arrival of the frame's header to its last
	// byte — so the receive loop can record a retroactive
	// "transport.recv" span once the message's trace context is
	// decoded. 0 means no reassembly (the pipe hands messages over
	// whole). Valid only on the goroutine that called Recv, before the
	// next Recv.
	LastRecvDuration() time.Duration
	// Close terminates the connection; pending Recv calls fail.
	Close() error
	// RemoteAddr describes the peer, for logging and the RAN database.
	RemoteAddr() string
}

// RecvBuf receives the next message on c into dst: c.Recv(dst).
func RecvBuf(c Conn, dst []byte) ([]byte, error) { return c.Recv(dst) }

// Listener accepts incoming connections.
type Listener interface {
	// Accept blocks for the next connection.
	Accept() (Conn, error)
	// Close stops listening; pending Accepts fail.
	Close() error
	// Addr is the bound address, e.g. to advertise in setup procedures.
	Addr() string
}

// Kind selects a transport implementation.
type Kind string

// Available transports.
const (
	// KindSCTPish is the default: framed TCP with SCTP-like message
	// semantics.
	KindSCTPish Kind = "sctpish"
	// KindPipe is an in-process transport for co-located deployments.
	KindPipe Kind = "pipe"
)

// Listen binds a listener of the given kind. For KindSCTPish the address
// is a TCP "host:port" (":0" picks a free port); for KindPipe it is an
// arbitrary name registered in the process-wide pipe namespace.
func Listen(kind Kind, addr string) (Listener, error) {
	switch kind {
	case KindSCTPish:
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &streamListener{l: l}, nil
	case KindPipe:
		return pipeListen(addr)
	default:
		return nil, fmt.Errorf("transport: unknown kind %q", kind)
	}
}

// Dial connects to a listener of the given kind with the default dial
// timeout.
func Dial(kind Kind, addr string) (Conn, error) {
	return DialTimeout(kind, addr, DefaultDialTimeout)
}

// DialTimeout connects to a listener of the given kind, bounding
// connection establishment by timeout (0 or negative falls back to
// DefaultDialTimeout). The pipe transport connects synchronously and
// ignores the timeout.
func DialTimeout(kind Kind, addr string, timeout time.Duration) (Conn, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	switch kind {
	case KindSCTPish:
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			// E2 traffic is latency-sensitive small messages; never batch.
			_ = tc.SetNoDelay(true)
		}
		return newStreamConn(c), nil
	case KindPipe:
		return pipeDial(addr)
	default:
		return nil, fmt.Errorf("transport: unknown kind %q", kind)
	}
}

// streamConn frames messages over a byte stream with a 4-byte big-endian
// length prefix, preserving message boundaries as SCTP would.
type streamConn struct {
	c net.Conn

	sendMu sync.Mutex
	hdr    [4]byte
	// Vectored-write scratch, reused across sends under sendMu. wr is
	// the view of iov that WriteTo consumes: it advances the slice it is
	// called on, and calling it on a field rather than a local keeps
	// that slice header off the heap. Entries of iov are nilled after
	// the write so caller payloads are not retained.
	batchHdrs [][4]byte
	iov, wr   net.Buffers

	recvMu  sync.Mutex
	recvHdr [4]byte

	closeOnce sync.Once
	closeErr  error

	// lastRecvNS is the reassembly duration of the most recent Recv,
	// read by the receive loop via LastRecvDuration to record a retroactive
	// transport.recv span. Only the Recv caller touches it (Recv may not
	// be called concurrently with itself), so a plain field suffices.
	lastRecvNS int64

	stats connStats
}

func newStreamConn(c net.Conn) *streamConn {
	return &streamConn{c: c, stats: newConnStats(KindSCTPish)}
}

// Send implements Conn.
func (s *streamConn) Send(b []byte) error {
	if len(b) > MaxMessageSize {
		return ErrMessageTooLarge
	}
	t0 := time.Now()
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	binary.BigEndian.PutUint32(s.hdr[:], uint32(len(b)))
	// Two writes would allow the kernel to emit a tiny header segment;
	// use a vectored write so header+payload go out together.
	s.iov = append(s.iov[:0], s.hdr[:], b)
	if err := s.writeIov(); err != nil {
		return mapErr(err)
	}
	s.stats.sent(len(b), time.Since(t0))
	return nil
}

// SendBatch implements Conn: all headers and payloads leave in a
// single vectored write under one lock acquisition, so the kernel sees
// the whole batch at once and a per-TTI burst of indications costs one
// syscall. The scratch header and iovec slices are retained by the
// connection; the caller's payloads are not.
func (s *streamConn) SendBatch(msgs [][]byte) error {
	if len(msgs) == 0 {
		return nil
	}
	total := 0
	for _, b := range msgs {
		if len(b) > MaxMessageSize {
			return ErrMessageTooLarge
		}
		total += len(b)
	}
	t0 := time.Now()
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if cap(s.batchHdrs) < len(msgs) {
		s.batchHdrs = make([][4]byte, len(msgs))
	}
	hdrs := s.batchHdrs[:len(msgs)]
	s.iov = s.iov[:0]
	for i, b := range msgs {
		binary.BigEndian.PutUint32(hdrs[i][:], uint32(len(b)))
		s.iov = append(s.iov, hdrs[i][:], b)
	}
	if err := s.writeIov(); err != nil {
		return mapErr(err)
	}
	s.stats.sentBatch(len(msgs), total, time.Since(t0))
	return nil
}

// writeIov sends s.iov in one vectored write. Called under sendMu.
func (s *streamConn) writeIov() error {
	s.wr = s.iov
	_, err := s.wr.WriteTo(s.c)
	s.wr = nil
	for i := range s.iov {
		s.iov[i] = nil
	}
	return err
}

// Recv implements Conn: the frame is read into dst when it fits,
// otherwise dst is recycled through the buffer pool and a pooled
// replacement is used.
func (s *streamConn) Recv(dst []byte) ([]byte, error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	if _, err := io.ReadFull(s.c, s.recvHdr[:]); err != nil {
		return nil, mapErr(err)
	}
	// The frame has started arriving: receive latency is measured from
	// here (reassembly), not from the call (idle wait for the peer).
	t0 := time.Now()
	n := binary.BigEndian.Uint32(s.recvHdr[:])
	if n > MaxMessageSize {
		return nil, ErrMessageTooLarge
	}
	var buf []byte
	if int(n) <= cap(dst) {
		buf = dst[:n]
	} else {
		bufpool.Put(dst)
		buf = bufpool.Get(int(n))
	}
	if _, err := io.ReadFull(s.c, buf); err != nil {
		return nil, mapErr(err)
	}
	d := time.Since(t0)
	s.lastRecvNS = int64(d)
	s.stats.received(len(buf), d)
	return buf, nil
}

// LastRecvDuration implements Conn.
func (s *streamConn) LastRecvDuration() time.Duration {
	return time.Duration(s.lastRecvNS)
}

// SetRecvDeadline implements Conn.
func (s *streamConn) SetRecvDeadline(t time.Time) error {
	return mapErr(s.c.SetReadDeadline(t))
}

// mapErr normalizes stream errors: peer or local teardown surfaces as
// ErrClosed on both Send and Recv, and a read-deadline expiry as
// ErrTimeout.
func mapErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ErrTimeout
	}
	return err
}

// Close implements Conn.
func (s *streamConn) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.c.Close()
		s.stats.close()
	})
	return s.closeErr
}

// RemoteAddr implements Conn.
func (s *streamConn) RemoteAddr() string { return s.c.RemoteAddr().String() }

type streamListener struct {
	l net.Listener
}

// Accept implements Listener.
func (s *streamListener) Accept() (Conn, error) {
	c, err := s.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return newStreamConn(c), nil
}

// Close implements Listener.
func (s *streamListener) Close() error { return s.l.Close() }

// Addr implements Listener.
func (s *streamListener) Addr() string { return s.l.Addr().String() }
