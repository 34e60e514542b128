package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"flexric/internal/telemetry"
	"flexric/internal/transport"
)

// WrapConn returns c with keepalive emission and dead-peer detection
// per the config (call WithDefaults first; non-positive
// KeepaliveInterval and DeadAfter disable the respective behavior, and
// if both are disabled c is returned unchanged).
//
// The wire format is a zero-length frame: no E2AP codec ever emits an
// empty message, so keepalives cannot collide with protocol traffic,
// and the wrapper filters them out of Recv before the protocol layer
// looks. Keepalives are sent only when the connection has been idle for
// a full interval — a busy indication stream is its own liveness
// signal. Dead-peer detection re-arms a receive deadline before every
// blocking read; if nothing arrives within DeadAfter, Recv returns
// ErrPeerDead and the connection must be abandoned.
//
// SetRecvDeadline and LastRecvDuration are forwarded to the inner
// connection. While dead-peer detection is on, the detector owns the
// receive deadline: every Recv re-arms it to DeadAfter, so a caller's
// deadline is replaced before it can fire and a silent peer surfaces as
// ErrPeerDead after DeadAfter. With detection off, a caller's deadline
// holds and surfaces as transport.ErrTimeout.
func (c Config) WrapConn(tc transport.Conn) transport.Conn {
	if tc == nil || (c.KeepaliveInterval <= 0 && c.DeadAfter <= 0) {
		return tc
	}
	k := &kaConn{
		inner:     tc,
		interval:  c.KeepaliveInterval,
		deadAfter: c.DeadAfter,
		done:      make(chan struct{}),
		tel: kaTel{
			sent:  telemetry.NewCounter("resilience.keepalives_sent"),
			recvd: telemetry.NewCounter("resilience.keepalives_recv"),
			dead:  telemetry.NewCounter("resilience.dead_peers"),
		},
	}
	k.lastSendNS.Store(time.Now().UnixNano())
	if c.KeepaliveInterval > 0 {
		go k.keepaliveLoop()
	}
	return k
}

type kaTel struct {
	sent  *telemetry.Counter
	recvd *telemetry.Counter
	dead  *telemetry.Counter
}

// kaConn filters keepalives and polices peer liveness around an inner
// connection.
type kaConn struct {
	inner     transport.Conn
	interval  time.Duration
	deadAfter time.Duration // <= 0: no dead-peer detection

	// sendMu serializes application sends with the keepalive loop: the
	// transport contract forbids concurrent Sends.
	sendMu     sync.Mutex
	lastSendNS atomic.Int64

	closeOnce sync.Once
	done      chan struct{}

	tel kaTel
}

// Send implements transport.Conn. The added cost over the inner Send is
// one mutex and one atomic store — zero allocations (gated by
// BenchmarkResilienceSendHotPath).
func (k *kaConn) Send(b []byte) error {
	k.sendMu.Lock()
	err := k.inner.Send(b)
	k.sendMu.Unlock()
	if err == nil {
		k.lastSendNS.Store(time.Now().UnixNano())
	}
	return err
}

// SendBatch implements transport.Conn with the same liveness
// bookkeeping as Send; the inner batch path (a single vectored write on
// the stream transport) is preserved through the wrapper, keeping the
// batch fast path available on resilient connections.
func (k *kaConn) SendBatch(msgs [][]byte) error {
	k.sendMu.Lock()
	err := k.inner.SendBatch(msgs)
	k.sendMu.Unlock()
	if err == nil {
		k.lastSendNS.Store(time.Now().UnixNano())
	}
	return err
}

// Recv implements transport.Conn, forwarding the recycled buffer to the
// inner connection. Keepalive frames are consumed silently; a receive
// deadline armed before every blocking read turns a silent peer into
// ErrPeerDead.
func (k *kaConn) Recv(dst []byte) ([]byte, error) {
	for {
		if k.deadAfter > 0 {
			if err := k.inner.SetRecvDeadline(time.Now().Add(k.deadAfter)); err != nil {
				return nil, err
			}
		}
		b, err := k.inner.Recv(dst)
		if err != nil {
			if k.deadAfter > 0 && errors.Is(err, transport.ErrTimeout) {
				k.tel.dead.Inc()
				return nil, ErrPeerDead
			}
			return nil, err
		}
		if len(b) == 0 {
			// A consumed keepalive: dst has been handed to the inner
			// connection already, so the empty frame we got back is the
			// buffer to recycle on the next read.
			dst = b
			k.tel.recvd.Inc()
			continue
		}
		return b, nil
	}
}

// Close implements transport.Conn, stopping the keepalive loop.
func (k *kaConn) Close() error {
	k.closeOnce.Do(func() { close(k.done) })
	return k.inner.Close()
}

// RemoteAddr implements transport.Conn.
func (k *kaConn) RemoteAddr() string { return k.inner.RemoteAddr() }

// SetRecvDeadline implements transport.Conn. See WrapConn for what a
// caller's deadline means while dead-peer detection is on.
func (k *kaConn) SetRecvDeadline(t time.Time) error { return k.inner.SetRecvDeadline(t) }

// LastRecvDuration implements transport.Conn.
func (k *kaConn) LastRecvDuration() time.Duration { return k.inner.LastRecvDuration() }

// keepaliveLoop emits a zero-length frame whenever a full interval
// passes without an application send. It exits when the connection
// closes or a keepalive fails (the peer will be detected dead by its
// own reader; ours surfaces the error on the next Recv or Send).
func (k *kaConn) keepaliveLoop() {
	t := time.NewTicker(k.interval)
	defer t.Stop()
	for {
		select {
		case <-k.done:
			return
		case now := <-t.C:
			idle := now.UnixNano() - k.lastSendNS.Load()
			if idle < int64(k.interval) {
				continue
			}
			k.sendMu.Lock()
			err := k.inner.Send(nil)
			k.sendMu.Unlock()
			if err != nil {
				return
			}
			k.lastSendNS.Store(time.Now().UnixNano())
			k.tel.sent.Inc()
		}
	}
}
