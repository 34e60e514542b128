package server

import (
	"sync"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/trace"
	"flexric/internal/transport"
)

// agentConn is the server side of one agent association.
type agentConn struct {
	srv  *Server
	id   AgentID
	tc   transport.Conn
	info AgentInfo

	enc    e2ap.Codec
	dec    e2ap.Codec
	sendMu sync.Mutex
}

func (c *agentConn) send(pdu e2ap.PDU) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	wire, err := c.enc.Encode(pdu)
	if err != nil {
		return err
	}
	return transport.TracedSend(c.tc, wire, e2ap.TraceOf(pdu))
}

// serveAgent performs E2 setup and runs the receive loop for one agent.
func (s *Server) serveAgent(tc transport.Conn) {
	c := &agentConn{
		srv: s,
		tc:  tc,
		enc: e2ap.MustCodec(s.cfg.Scheme),
		dec: e2ap.MustCodec(s.cfg.Scheme),
	}

	// Bound the handshake: an accepted connection that never completes
	// E2 setup must not pin a goroutine forever. Same default as the
	// dialer's connection-establishment timeout.
	hsTimeout := s.cfg.DialTimeout
	if hsTimeout <= 0 {
		hsTimeout = transport.DefaultDialTimeout
	}
	_ = tc.SetRecvDeadline(time.Now().Add(hsTimeout))

	// First message must be the setup request. A resilience-wrapped
	// peer may slip in a zero-length keepalive first; those are not
	// protocol messages and are skipped.
	var setup *e2ap.SetupRequest
	for {
		wire, err := tc.Recv(nil)
		if err != nil {
			tc.Close()
			return
		}
		if len(wire) == 0 {
			continue
		}
		pdu, err := c.dec.Decode(wire)
		if err != nil {
			tc.Close()
			return
		}
		m, ok := pdu.(*e2ap.SetupRequest)
		if !ok {
			_ = c.send(&e2ap.SetupFailure{
				Cause: e2ap.Cause{Type: e2ap.CauseProtocol, Value: 1},
			})
			tc.Close()
			return
		}
		setup = m
		break
	}
	_ = tc.SetRecvDeadline(time.Time{})

	accepted := make([]uint16, len(setup.RANFunctions))
	for i, f := range setup.RANFunctions {
		accepted[i] = f.ID
	}
	if err := c.send(&e2ap.SetupResponse{
		TransactionID: setup.TransactionID,
		RICID:         s.cfg.RICID,
		Accepted:      accepted,
	}); err != nil {
		tc.Close()
		return
	}

	// The association is live: police it with keepalives and dead-peer
	// detection from here on.
	if s.res != nil {
		c.tc = s.res.WrapConn(tc)
	}

	if !s.admitAgent(c, setup) {
		c.tc.Close()
		return
	}

	c.recvLoop()
	s.teardownAgent(c)
}

// recvLoop is the message handler: indications take the envelope fast
// path (no full decode with the FB scheme); everything else is decoded.
// The frame buffer is recycled through the connection's Recv, so a
// steady indication stream is received without allocating; in exchange,
// envelope views into the frame are valid only until the next iteration
// (dispatch is synchronous and decoded PDUs copy their byte fields, so
// nothing downstream outlives it).
func (c *agentConn) recvLoop() {
	var buf []byte
	for {
		wire, err := c.tc.Recv(buf)
		if err != nil {
			return
		}
		buf = wire
		env, err := c.dec.Envelope(wire)
		if err != nil {
			continue
		}
		// The reassembly time was measured before the trace context
		// could be decoded; attach it retroactively. The pipe
		// transport has no reassembly phase and reports 0.
		if tc := env.Trace(); tc.Valid() {
			if d := c.tc.LastRecvDuration(); d > 0 {
				trace.Record(tc, "transport.recv", time.Now().Add(-d), d)
			}
		}
		switch env.Type() {
		case e2ap.TypeIndication:
			// Hot path: route by request ID straight from the envelope.
			c.srv.subs.dispatchIndication(c.id, env)
		case e2ap.TypeSubscriptionResponse:
			if pdu, err := env.PDU(); err == nil {
				c.srv.subs.handleSubResponse(c.id, pdu.(*e2ap.SubscriptionResponse))
			}
		case e2ap.TypeSubscriptionFailure:
			if pdu, err := env.PDU(); err == nil {
				m := pdu.(*e2ap.SubscriptionFailure)
				c.srv.subs.handleSubFailure(c.id, m)
			}
		case e2ap.TypeSubscriptionDeleteResponse:
			if pdu, err := env.PDU(); err == nil {
				m := pdu.(*e2ap.SubscriptionDeleteResponse)
				c.srv.subs.handleSubDeleted(c.id, m.RequestID)
			}
		case e2ap.TypeSubscriptionDeleteFailure:
			// Subscription stays; nothing to do without retry policy.
		case e2ap.TypeControlAck:
			if pdu, err := env.PDU(); err == nil {
				m := pdu.(*e2ap.ControlAck)
				c.srv.subs.handleControlOutcome(c.id, m.RequestID, m.Outcome, nil)
			}
		case e2ap.TypeControlFailure:
			if pdu, err := env.PDU(); err == nil {
				m := pdu.(*e2ap.ControlFailure)
				c.srv.subs.handleControlOutcome(c.id, m.RequestID, m.Outcome, &controlError{cause: m.Cause})
			}
		case e2ap.TypeServiceUpdate:
			if pdu, err := env.PDU(); err == nil {
				m := pdu.(*e2ap.ServiceUpdate)
				c.srv.handleServiceUpdate(c, m)
			}
		case e2ap.TypeErrorIndication:
			// Informational.
		default:
			_ = c.send(&e2ap.ErrorIndication{
				Cause: e2ap.Cause{Type: e2ap.CauseProtocol, Value: 2},
			})
		}
	}
}

func (s *Server) handleServiceUpdate(c *agentConn, m *e2ap.ServiceUpdate) {
	s.mu.Lock()
	// Apply added/modified/deleted functions to the agent record.
	fns := c.info.Functions
	for _, add := range append(m.Added, m.Modified...) {
		replaced := false
		for i := range fns {
			if fns[i].ID == add.ID {
				fns[i] = add
				replaced = true
				break
			}
		}
		if !replaced {
			fns = append(fns, add)
		}
	}
	if len(m.Deleted) > 0 {
		kept := fns[:0]
		for _, f := range fns {
			del := false
			for _, d := range m.Deleted {
				if f.ID == d {
					del = true
					break
				}
			}
			if !del {
				kept = append(kept, f)
			}
		}
		fns = kept
	}
	c.info.Functions = fns
	accepted := make([]uint16, len(fns))
	for i, f := range fns {
		accepted[i] = f.ID
	}
	s.updateAgentStatsLocked()
	s.mu.Unlock()
	_ = c.send(&e2ap.ServiceUpdateAck{TransactionID: m.TransactionID, Accepted: accepted})
}

// controlError wraps a control failure cause as an error.
type controlError struct {
	cause e2ap.Cause
}

func (e *controlError) Error() string { return "server: control failed: " + e.cause.String() }

// Cause returns the E2AP failure cause.
func (e *controlError) Cause() e2ap.Cause { return e.cause }
