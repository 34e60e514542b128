package e2ap

import (
	"sync/atomic"
	"time"

	"flexric/internal/telemetry"
)

// Telemetry: every codec operation is timed into per-scheme,
// per-PDU-type histograms —
//
//	e2ap.<scheme>.encode.<Type>    Encode latency
//	e2ap.<scheme>.decode.<Type>    Decode latency
//	e2ap.<scheme>.envelope         Envelope (dispatch-view) latency
//	e2ap.<scheme>.encode_errors    (counter)
//	e2ap.<scheme>.decode_errors    (counter)
//
// The envelope histogram is deliberately typeless and separate from
// decode: its asymmetry between schemes (a full PER decode pass vs an
// O(1) flat slot read) is the controller-scalability mechanism of
// Fig. 8b, now observable on a live system. Histograms are created
// lazily on first use, so a deployment that only ever carries
// indications registers only indication rows. The exported Encode /
// Decode / Envelope methods below wrap the codecs' private
// implementations; with the notelemetry build tag they collapse to
// direct calls.

// codecTel holds the lazily-created instruments, indexed by scheme.
var codecTel [2]struct {
	enc, dec [NumMessageTypes]atomic.Pointer[telemetry.Histogram]
	env      atomic.Pointer[telemetry.Histogram]
	encErr   atomic.Pointer[telemetry.Counter]
	decErr   atomic.Pointer[telemetry.Counter]
}

func schemeIdx(s Scheme) int {
	if s == SchemeFB {
		return 1
	}
	return 0
}

func (s Scheme) telemetryName() string {
	if s == SchemeFB {
		return "fb"
	}
	return "asn"
}

// telHist lazily resolves a histogram cell. A creation race is benign:
// the registry's get-or-create returns the same instance to every
// racer.
func telHist(p *atomic.Pointer[telemetry.Histogram], name func() string) *telemetry.Histogram {
	h := p.Load()
	if h == nil {
		h = telemetry.NewHistogram(name())
		p.Store(h)
	}
	return h
}

func telCount(p *atomic.Pointer[telemetry.Counter], name func() string) *telemetry.Counter {
	c := p.Load()
	if c == nil {
		c = telemetry.NewCounter(name())
		p.Store(c)
	}
	return c
}

func observeCodec(scheme Scheme, op string, t MessageType, d time.Duration) {
	i := schemeIdx(scheme)
	var cell *atomic.Pointer[telemetry.Histogram]
	if op == "encode" {
		cell = &codecTel[i].enc[t]
	} else {
		cell = &codecTel[i].dec[t]
	}
	telHist(cell, func() string {
		return "e2ap." + scheme.telemetryName() + "." + op + "." + t.String()
	}).Observe(d)
}

func observeEnvelope(scheme Scheme, d time.Duration) {
	i := schemeIdx(scheme)
	telHist(&codecTel[i].env, func() string {
		return "e2ap." + scheme.telemetryName() + ".envelope"
	}).Observe(d)
}

func countCodecError(scheme Scheme, op string) {
	i := schemeIdx(scheme)
	var cell *atomic.Pointer[telemetry.Counter]
	if op == "encode" {
		cell = &codecTel[i].encErr
	} else {
		cell = &codecTel[i].decErr
	}
	telCount(cell, func() string {
		return "e2ap." + scheme.telemetryName() + "." + op + "_errors"
	}).Inc()
}

// Encode implements Codec.
func (c *PERCodec) Encode(pdu PDU) ([]byte, error) {
	if !telemetry.Enabled {
		return c.encode(pdu)
	}
	t0 := time.Now()
	wire, err := c.encode(pdu)
	if err != nil {
		countCodecError(SchemeASN, "encode")
		return nil, err
	}
	observeCodec(SchemeASN, "encode", pdu.MsgType(), time.Since(t0))
	return wire, nil
}

// EncodeAppend implements Codec. It shares Encode's histogram: the
// operation is the same encode pass, only the buffer discipline differs.
func (c *PERCodec) EncodeAppend(dst []byte, pdu PDU) ([]byte, error) {
	if !telemetry.Enabled {
		return c.encodeAppend(dst, pdu)
	}
	t0 := time.Now()
	wire, err := c.encodeAppend(dst, pdu)
	if err != nil {
		countCodecError(SchemeASN, "encode")
		return nil, err
	}
	observeCodec(SchemeASN, "encode", pdu.MsgType(), time.Since(t0))
	return wire, nil
}

// Decode implements Codec.
func (c *PERCodec) Decode(wire []byte) (PDU, error) {
	if !telemetry.Enabled {
		return c.decode(wire)
	}
	t0 := time.Now()
	pdu, err := c.decode(wire)
	if err != nil {
		countCodecError(SchemeASN, "decode")
		return nil, err
	}
	observeCodec(SchemeASN, "decode", pdu.MsgType(), time.Since(t0))
	return pdu, nil
}

// Envelope implements Codec. PER has no random access: the full parsing
// pass is unavoidable, and the envelope histogram records its cost. An
// indication is parsed into a codec-owned view whose octet strings alias
// wire (see the Codec.Envelope contract); every other type is decoded.
func (c *PERCodec) Envelope(wire []byte) (Envelope, error) {
	if !telemetry.Enabled {
		return c.envelope(wire)
	}
	t0 := time.Now()
	env, err := c.envelope(wire)
	if err != nil {
		countCodecError(SchemeASN, "decode")
		return nil, err
	}
	observeEnvelope(SchemeASN, time.Since(t0))
	return env, nil
}

// Encode implements Codec.
func (c *FlatCodec) Encode(pdu PDU) ([]byte, error) {
	if !telemetry.Enabled {
		return c.encode(pdu)
	}
	t0 := time.Now()
	wire, err := c.encode(pdu)
	if err != nil {
		countCodecError(SchemeFB, "encode")
		return nil, err
	}
	observeCodec(SchemeFB, "encode", pdu.MsgType(), time.Since(t0))
	return wire, nil
}

// EncodeAppend implements Codec. It shares Encode's histogram: the
// operation is the same encode pass, only the buffer discipline differs.
func (c *FlatCodec) EncodeAppend(dst []byte, pdu PDU) ([]byte, error) {
	if !telemetry.Enabled {
		return c.encodeAppend(dst, pdu)
	}
	t0 := time.Now()
	wire, err := c.encodeAppend(dst, pdu)
	if err != nil {
		countCodecError(SchemeFB, "encode")
		return nil, err
	}
	observeCodec(SchemeFB, "encode", pdu.MsgType(), time.Since(t0))
	return wire, nil
}

// Decode implements Codec.
func (c *FlatCodec) Decode(wire []byte) (PDU, error) {
	if !telemetry.Enabled {
		return c.decode(wire)
	}
	t0 := time.Now()
	pdu, err := c.decode(wire)
	if err != nil {
		countCodecError(SchemeFB, "decode")
		return nil, err
	}
	observeCodec(SchemeFB, "decode", pdu.MsgType(), time.Since(t0))
	return pdu, nil
}

// Envelope implements Codec: O(1) slot reads, no decode pass — the
// envelope histogram records exactly that near-constant cost.
func (c *FlatCodec) Envelope(wire []byte) (Envelope, error) {
	if !telemetry.Enabled {
		return c.envelope(wire)
	}
	t0 := time.Now()
	env, err := c.envelope(wire)
	if err != nil {
		countCodecError(SchemeFB, "decode")
		return nil, err
	}
	observeEnvelope(SchemeFB, time.Since(t0))
	return env, nil
}
