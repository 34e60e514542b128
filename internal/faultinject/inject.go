package faultinject

import (
	"sync/atomic"
	"time"

	"flexric/internal/transport"
)

// WrapConn returns c with the plan's connection faults applied. A nil
// plan returns c unchanged. Receive deadlines and the reassembly time
// are forwarded to the inner connection, so a wrapped pipe conn still
// reports no reassembly time.
func (p *Plan) WrapConn(c transport.Conn) transport.Conn {
	if p == nil || c == nil {
		return c
	}
	return &faultConn{p: p, inner: c}
}

// WrapListener returns l with the plan's blackout windows applied, and
// every accepted connection wrapped via WrapConn. A nil plan returns l
// unchanged.
func (p *Plan) WrapListener(l transport.Listener) transport.Listener {
	if p == nil || l == nil {
		return l
	}
	return &faultListener{p: p, inner: l}
}

// fireDrop reports whether the armed drop directive should fire for a
// connection that has moved frames frames. The directives share one
// fired-index: exactly one connection fires each directive, and a
// directive arms only after its predecessors fired — so redial attempts
// rejected by a blackout never consume a drop budget.
func (p *Plan) fireDrop(frames uint64) bool {
	for {
		idx := p.state.dropsFired.Load()
		if idx >= uint64(len(p.Drops)) || frames < p.Drops[idx] {
			return false
		}
		if p.state.dropsFired.CompareAndSwap(idx, idx+1) {
			p.tel.drops.Inc()
			return true
		}
	}
}

// fireStall returns the silent period to impose before delivering the
// next received frame (recvs frames received so far on this conn), or 0.
func (p *Plan) fireStall(recvs uint64) time.Duration {
	for {
		idx := p.state.stallsFired.Load()
		if idx >= uint64(len(p.Stalls)) || recvs+1 < p.Stalls[idx].AtRecv {
			return 0
		}
		if p.state.stallsFired.CompareAndSwap(idx, idx+1) {
			p.tel.stalls.Inc()
			return p.Stalls[idx].Dur
		}
	}
}

// delay returns the jittered injection latency for a configured base
// (uniform in [0.5x, 1.5x), seeded), or 0 when none is configured.
func (p *Plan) delay(base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	p.state.mu.Lock()
	f := 0.5 + p.state.rng.Float64()
	p.state.mu.Unlock()
	p.tel.latency.Inc()
	return time.Duration(float64(base) * f)
}

// blackout reports whether accept event ev (1-based) falls inside a
// blackout window.
func (p *Plan) blackout(ev uint64) bool {
	for _, b := range p.Blackouts {
		if ev > b.After && ev <= b.After+b.Count {
			return true
		}
	}
	return false
}

// faultConn applies the plan's per-connection faults: frame-budget
// drops, scripted receive stalls, and jittered send/receive latency.
type faultConn struct {
	p     *Plan
	inner transport.Conn

	// dropped latches once this connection fires a drop directive: a
	// dead connection must not consume further directives, or senders
	// retrying on it would burn through the whole drop budget before the
	// reconnected transport sees any traffic.
	dropped atomic.Bool

	// Frame counters are atomics: each is written by exactly one
	// direction (the transport contract forbids concurrent Send/Send and
	// Recv/Recv), but the drop budget sums both, so each direction reads
	// the other's counter.
	sent  atomic.Uint64
	recvs atomic.Uint64
}

// Send implements transport.Conn.
func (c *faultConn) Send(b []byte) error {
	if c.dropped.Load() {
		return transport.ErrClosed
	}
	if c.p.fireDrop(c.sent.Load() + c.recvs.Load()) {
		c.dropped.Store(true)
		c.inner.Close()
		return transport.ErrClosed
	}
	if d := c.p.delay(c.p.SendLat); d > 0 {
		time.Sleep(d)
	}
	if err := c.inner.Send(b); err != nil {
		return err
	}
	c.sent.Add(1)
	return nil
}

// SendBatch implements transport.Conn. The batch counts one
// frame per message against the drop budget, but the drop check happens
// once up front: a batch is one wire operation, so it drops (or
// survives) atomically, exactly like the stream transport's single
// vectored write.
func (c *faultConn) SendBatch(msgs [][]byte) error {
	if c.dropped.Load() {
		return transport.ErrClosed
	}
	if c.p.fireDrop(c.sent.Load() + c.recvs.Load()) {
		c.dropped.Store(true)
		c.inner.Close()
		return transport.ErrClosed
	}
	if d := c.p.delay(c.p.SendLat); d > 0 {
		time.Sleep(d)
	}
	if err := c.inner.SendBatch(msgs); err != nil {
		return err
	}
	c.sent.Add(uint64(len(msgs)))
	return nil
}

// Recv implements transport.Conn, forwarding the recycled buffer to the
// inner connection. A stall sleeps before the inner Recv, so an
// absolute receive deadline set on the connection expires during the
// stall and surfaces as ErrTimeout — exactly how a silent peer looks to
// the dead-peer detector.
func (c *faultConn) Recv(dst []byte) ([]byte, error) {
	if c.dropped.Load() {
		return nil, transport.ErrClosed
	}
	if c.p.fireDrop(c.sent.Load() + c.recvs.Load()) {
		c.dropped.Store(true)
		c.inner.Close()
		return nil, transport.ErrClosed
	}
	if d := c.p.fireStall(c.recvs.Load()); d > 0 {
		time.Sleep(d)
	}
	if d := c.p.delay(c.p.RecvLat); d > 0 {
		time.Sleep(d)
	}
	b, err := c.inner.Recv(dst)
	if err != nil {
		return nil, err
	}
	c.recvs.Add(1)
	return b, nil
}

// Close implements transport.Conn.
func (c *faultConn) Close() error { return c.inner.Close() }

// RemoteAddr implements transport.Conn.
func (c *faultConn) RemoteAddr() string { return c.inner.RemoteAddr() }

// SetRecvDeadline implements transport.Conn.
func (c *faultConn) SetRecvDeadline(t time.Time) error { return c.inner.SetRecvDeadline(t) }

// LastRecvDuration implements transport.Conn.
func (c *faultConn) LastRecvDuration() time.Duration { return c.inner.LastRecvDuration() }

// faultListener rejects accepted connections during blackout windows
// and fault-wraps the ones it lets through.
type faultListener struct {
	p     *Plan
	inner transport.Listener
}

// Accept implements transport.Listener. Connections accepted inside a
// blackout window are closed immediately and never handed to the
// server: the dialer's connection dies on first use, as if the RIC went
// dark right after the TCP handshake.
func (l *faultListener) Accept() (transport.Conn, error) {
	for {
		c, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		ev := l.p.state.acceptEvents.Add(1)
		if l.p.blackout(ev) {
			c.Close()
			l.p.state.blackoutRejects.Add(1)
			l.p.tel.blackouts.Inc()
			continue
		}
		return l.p.WrapConn(c), nil
	}
}

// Close implements transport.Listener.
func (l *faultListener) Close() error { return l.inner.Close() }

// Addr implements transport.Listener.
func (l *faultListener) Addr() string { return l.inner.Addr() }
