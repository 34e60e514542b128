package agent

import (
	"sync"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/telemetry"
	"flexric/internal/trace"
	"flexric/internal/transport"
)

// conn is one controller connection: the message handler of Fig. 3.
type conn struct {
	agent *Agent
	id    ControllerID
	addr  string
	// tc is the live transport. The reconnect supervisor swaps it under
	// sendMu, so IndicationSenders holding this conn stay valid across
	// reconnects; senders and Close read it under the same lock.
	tc transport.Conn

	// enc/dec are separate codec instances: enc is used by senders (any
	// goroutine, under sendMu) and dec only by the receive loop.
	enc e2ap.Codec
	dec e2ap.Codec

	sendMu sync.Mutex
	// Indication fast-path state, valid under sendMu: the PDU struct and
	// the wire buffer are reused across sends, so a steady indication
	// stream encodes and transmits without allocating.
	ind     e2ap.Indication
	sendBuf []byte
}

// closeTransport closes the current transport, reading it under the
// send lock so a concurrent reconnect swap cannot leak a live conn.
func (c *conn) closeTransport() {
	c.sendMu.Lock()
	tc := c.tc
	c.sendMu.Unlock()
	tc.Close()
}

// send encodes and transmits one PDU. Safe for concurrent use.
func (c *conn) send(pdu e2ap.PDU) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	wire, err := c.enc.Encode(pdu)
	if err != nil {
		return err
	}
	return transport.TracedSend(c.tc, wire, e2ap.TraceOf(pdu))
}

// sendIndication is the hot-path equivalent of send for indications:
// the PDU struct and wire buffer are connection-owned and reused, so
// nothing is allocated per message. Safe for concurrent use.
func (c *conn) sendIndication(ind e2ap.Indication) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.ind = ind
	wire, err := c.enc.EncodeAppend(c.sendBuf[:0], &c.ind)
	// Drop the references to the caller's buffers either way: the reused
	// struct must not pin them until the next indication.
	c.ind.Header, c.ind.Payload = nil, nil
	if err != nil {
		return err
	}
	c.sendBuf = wire[:0] // keep the grown buffer for the next send
	return transport.TracedSend(c.tc, wire, ind.Trace)
}

// recvLoop dispatches controller messages to RAN functions until the
// connection closes.
func (c *conn) recvLoop() {
	for {
		wire, err := c.tc.Recv(nil)
		if err != nil {
			return
		}
		pdu, err := c.dec.Decode(wire)
		if err != nil {
			_ = c.send(&e2ap.ErrorIndication{
				Cause: e2ap.Cause{Type: e2ap.CauseProtocol, Value: 1},
			})
			continue
		}
		c.dispatch(pdu)
	}
}

func (c *conn) dispatch(pdu e2ap.PDU) {
	switch m := pdu.(type) {
	case *e2ap.SubscriptionRequest:
		c.handleSubscription(m)
	case *e2ap.SubscriptionDeleteRequest:
		c.handleSubscriptionDelete(m)
	case *e2ap.ControlRequest:
		c.handleControl(m)
	case *e2ap.ResetRequest:
		_ = c.send(&e2ap.ResetResponse{TransactionID: m.TransactionID})
	case *e2ap.ServiceQuery:
		_ = c.send(&e2ap.ServiceUpdate{TransactionID: m.TransactionID, Added: c.agent.Functions()})
	case *e2ap.ErrorIndication:
		// Logged by real deployments; nothing to unwind here.
	default:
		_ = c.send(&e2ap.ErrorIndication{
			Cause: e2ap.Cause{Type: e2ap.CauseProtocol, Value: 2},
		})
	}
}

func (c *conn) handleSubscription(m *e2ap.SubscriptionRequest) {
	// Fill latency: request dispatch to response on the wire.
	t0 := time.Now()
	// Child of the controller's server.subscribe span (the context rode
	// the wire inside the request). Covers lookup, SM fill, and the
	// response send on every exit path.
	sp := trace.StartChild(m.Trace, "agent.sub_fill")
	defer sp.End()
	fn := c.agent.fn(m.RANFunctionID)
	if fn == nil {
		agentTel.subsRejected.Inc()
		_ = c.send(&e2ap.SubscriptionFailure{
			RequestID:     m.RequestID,
			RANFunctionID: m.RANFunctionID,
			Cause:         e2ap.Cause{Type: e2ap.CauseRICRequest, Value: causeUnknownFunction},
		})
		return
	}
	tx := &indicationSender{conn: c, reqID: m.RequestID, fnID: m.RANFunctionID, sent: fnIndications(m.RANFunctionID)}
	if err := fn.OnSubscription(c.id, m, tx); err != nil {
		agentTel.subsRejected.Inc()
		_ = c.send(&e2ap.SubscriptionFailure{
			RequestID:     m.RequestID,
			RANFunctionID: m.RANFunctionID,
			Cause:         e2ap.Cause{Type: e2ap.CauseRICService, Value: causeSMRejected},
		})
		return
	}
	admitted := make([]uint8, len(m.Actions))
	for i, a := range m.Actions {
		admitted[i] = a.ID
	}
	_ = c.send(&e2ap.SubscriptionResponse{
		RequestID:     m.RequestID,
		RANFunctionID: m.RANFunctionID,
		Admitted:      admitted,
	})
	agentTel.subsAccepted.Inc()
	agentTel.subFill.Observe(time.Since(t0))
}

func (c *conn) handleSubscriptionDelete(m *e2ap.SubscriptionDeleteRequest) {
	fn := c.agent.fn(m.RANFunctionID)
	if fn == nil {
		_ = c.send(&e2ap.SubscriptionDeleteFailure{
			RequestID:     m.RequestID,
			RANFunctionID: m.RANFunctionID,
			Cause:         e2ap.Cause{Type: e2ap.CauseRICRequest, Value: causeUnknownFunction},
		})
		return
	}
	if err := fn.OnSubscriptionDelete(c.id, m); err != nil {
		_ = c.send(&e2ap.SubscriptionDeleteFailure{
			RequestID:     m.RequestID,
			RANFunctionID: m.RANFunctionID,
			Cause:         e2ap.Cause{Type: e2ap.CauseRICRequest, Value: causeUnknownSubscription},
		})
		return
	}
	_ = c.send(&e2ap.SubscriptionDeleteResponse{
		RequestID:     m.RequestID,
		RANFunctionID: m.RANFunctionID,
	})
}

func (c *conn) handleControl(m *e2ap.ControlRequest) {
	fn := c.agent.fn(m.RANFunctionID)
	if fn == nil {
		_ = c.send(&e2ap.ControlFailure{
			RequestID:     m.RequestID,
			RANFunctionID: m.RANFunctionID,
			Cause:         e2ap.Cause{Type: e2ap.CauseRICRequest, Value: causeUnknownFunction},
		})
		return
	}
	agentTel.controls.Inc()
	outcome, err := fn.OnControl(c.id, m)
	if err != nil {
		agentTel.controlFailed.Inc()
		_ = c.send(&e2ap.ControlFailure{
			RequestID:     m.RequestID,
			RANFunctionID: m.RANFunctionID,
			Cause:         e2ap.Cause{Type: e2ap.CauseRICService, Value: causeControlFailed},
			Outcome:       outcome,
		})
		return
	}
	if m.AckRequested {
		_ = c.send(&e2ap.ControlAck{
			RequestID:     m.RequestID,
			RANFunctionID: m.RANFunctionID,
			Outcome:       outcome,
		})
	}
}

// Cause values used by the agent.
const (
	causeUnknownFunction     = 1
	causeSMRejected          = 2
	causeUnknownSubscription = 3
	causeControlFailed       = 4
)

// indicationSender implements IndicationSender for one subscription.
type indicationSender struct {
	conn  *conn
	reqID e2ap.RequestID
	fnID  uint16
	sn    uint32
	snMu  sync.Mutex
	sent  *telemetry.Counter // per-RAN-function indication count
}

// SendIndication implements IndicationSender.
func (s *indicationSender) SendIndication(actionID uint8, class e2ap.IndicationClass, header, payload []byte) error {
	s.snMu.Lock()
	s.sn++
	sn := s.sn
	s.snMu.Unlock()
	// Root of the per-indication trace: the agent is where an indication
	// is born. The span covers encode + transport send; downstream
	// stages (dispatch, callbacks, fan-out) link to it via the context
	// carried in the PDU.
	sp := trace.StartRoot("agent.indication")
	err := s.conn.sendIndication(e2ap.Indication{
		RequestID:     s.reqID,
		RANFunctionID: s.fnID,
		ActionID:      actionID,
		SN:            sn,
		Class:         class,
		Header:        header,
		Payload:       payload,
		Trace:         sp.Context(),
	})
	sp.End()
	if err == nil {
		agentTel.indications.Inc()
		s.sent.Inc()
	}
	return err
}

// Controller implements IndicationSender.
func (s *indicationSender) Controller() ControllerID { return s.conn.id }
