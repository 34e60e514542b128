package agent

import (
	"flexric/internal/bufpool"
	"flexric/internal/e2ap"
	"flexric/internal/telemetry"
	"flexric/internal/trace"
	"flexric/internal/transport"
)

// BatchIndicationSender is implemented by indication senders that
// support batched emission. The concrete senders handed to RAN
// functions by this agent implement it; code that might run against
// other IndicationSender implementations should type-assert.
type BatchIndicationSender interface {
	IndicationSender
	// NewBatch returns an empty batch bound to this sender's
	// subscription and controller connection.
	NewBatch() *IndicationBatch
}

// NewBatch implements BatchIndicationSender.
func (s *indicationSender) NewBatch() *IndicationBatch {
	return &IndicationBatch{s: s, enc: e2ap.MustCodec(s.conn.agent.cfg.Scheme)}
}

// IndicationBatch accumulates indications and flushes them to the
// controller as one coalesced transport operation — on the stream
// transport a single vectored write, i.e. one syscall per TTI instead
// of one per indication (§5.1's 1 ms reporting regime is exactly this
// shape). Add encodes immediately into pooled frames, so neither the
// caller's header/payload nor any per-message wire buffer is retained
// past the call that used it.
//
// A batch is not safe for concurrent use; sequence numbers are drawn
// from the owning sender, so batched and direct sends may be mixed
// across goroutines.
type IndicationBatch struct {
	s      *indicationSender
	enc    e2ap.Codec // batch-owned: Add encodes outside the conn send lock
	ind    e2ap.Indication
	frames [][]byte
	n      int // indications in frames, for telemetry on Flush
	// hint is the largest frame seen so far: pool requests at that size
	// land in the same size class the flushed frames were returned to,
	// so a steady stream recycles instead of growing from scratch.
	hint int
}

// Add encodes one indication into the batch. The header and payload are
// not retained. Nothing touches the wire until Flush.
func (b *IndicationBatch) Add(actionID uint8, class e2ap.IndicationClass, header, payload []byte) error {
	s := b.s
	s.snMu.Lock()
	s.sn++
	sn := s.sn
	s.snMu.Unlock()
	// Same trace shape as the direct path: the root span is born at the
	// agent and covers the encode; the transport cost lands on Flush.
	sp := trace.StartRoot("agent.indication")
	b.ind = e2ap.Indication{
		RequestID:     s.reqID,
		RANFunctionID: s.fnID,
		ActionID:      actionID,
		SN:            sn,
		Class:         class,
		Header:        header,
		Payload:       payload,
		Trace:         sp.Context(),
	}
	hint := b.hint
	if hint < 64 {
		hint = 64
	}
	wire, err := b.enc.EncodeAppend(bufpool.Get(hint)[:0], &b.ind)
	b.ind.Header, b.ind.Payload = nil, nil
	sp.End()
	if err != nil {
		return err
	}
	if len(wire) > b.hint {
		b.hint = len(wire)
	}
	b.frames = append(b.frames, wire)
	b.n++
	return nil
}

// Len reports the number of indications queued in the batch.
func (b *IndicationBatch) Len() int { return b.n }

// Flush transmits every queued indication in one transport operation
// and recycles the frame buffers. The batch is reusable afterwards,
// empty, whether or not the send succeeded (on error the messages are
// lost, exactly as a failed Send loses its message).
func (b *IndicationBatch) Flush() error {
	if b.n == 0 {
		return nil
	}
	c := b.s.conn
	var err error
	c.sendMu.Lock()
	if b.n == 1 {
		// A batch of one is a plain send: same frame on the wire, and
		// the transport.send span a direct SendIndication would record
		// (b.ind still carries the lone indication's trace context).
		err = transport.TracedSend(c.tc, b.frames[0], b.ind.Trace)
	} else {
		err = transport.SendBatch(c.tc, b.frames)
	}
	c.sendMu.Unlock()
	// Transports do not retain the batch: frames go back to the pool.
	for i, f := range b.frames {
		bufpool.Put(f)
		b.frames[i] = nil
	}
	b.frames = b.frames[:0]
	n := b.n
	b.n = 0
	if telemetry.Enabled && err == nil {
		agentTel.indications.Add(uint64(n))
		b.s.sent.Add(uint64(n))
	}
	return err
}
