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
// implementations.

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

// telCell lazily resolves an instrument cell, made by mk. A creation
// race is benign: the registry's get-or-create returns the same instance
// to every racer.
func telCell[T any](p *atomic.Pointer[T], mk func(string) *T, name func() string) *T {
	v := p.Load()
	if v == nil {
		v = mk(name())
		p.Store(v)
	}
	return v
}

func countCodecError(scheme Scheme, op string) {
	i := schemeIdx(scheme)
	var cell *atomic.Pointer[telemetry.Counter]
	if op == "encode" {
		cell = &codecTel[i].encErr
	} else {
		cell = &codecTel[i].decErr
	}
	telCell(cell, telemetry.NewCounter, func() string {
		return "e2ap." + scheme.telemetryName() + "." + op + "_errors"
	}).Inc()
}

// observed finishes an encode or decode of pdu begun at t0: it records
// the latency in pdu's histogram, or counts the error. It returns err.
func observed(scheme Scheme, op string, pdu PDU, t0 time.Time, err error) error {
	if err != nil {
		countCodecError(scheme, op)
		return err
	}
	i, t := schemeIdx(scheme), pdu.MsgType()
	cell := &codecTel[i].dec[t]
	if op == "encode" {
		cell = &codecTel[i].enc[t]
	}
	telCell(cell, telemetry.NewHistogram, func() string {
		return "e2ap." + scheme.telemetryName() + "." + op + "." + t.String()
	}).Observe(time.Since(t0))
	return nil
}

// enveloped is observed for Envelope, whose histogram is typeless.
func enveloped(scheme Scheme, t0 time.Time, err error) error {
	if err != nil {
		countCodecError(scheme, "decode")
		return err
	}
	telCell(&codecTel[schemeIdx(scheme)].env, telemetry.NewHistogram, func() string {
		return "e2ap." + scheme.telemetryName() + ".envelope"
	}).Observe(time.Since(t0))
	return nil
}

// Encode implements Codec.
func (c *PERCodec) Encode(pdu PDU) ([]byte, error) {
	t0 := time.Now()
	wire, err := c.encode(pdu)
	return wire, observed(SchemeASN, "encode", pdu, t0, err)
}

// EncodeAppend implements Codec. It shares Encode's histogram: the
// operation is the same encode pass, only the buffer discipline differs.
func (c *PERCodec) EncodeAppend(dst []byte, pdu PDU) ([]byte, error) {
	t0 := time.Now()
	wire, err := c.encodeAppend(dst, pdu)
	return wire, observed(SchemeASN, "encode", pdu, t0, err)
}

// Decode implements Codec.
func (c *PERCodec) Decode(wire []byte) (PDU, error) {
	t0 := time.Now()
	pdu, err := c.decode(wire)
	return pdu, observed(SchemeASN, "decode", pdu, t0, err)
}

// Envelope implements Codec. PER has no random access: the full parsing
// pass is unavoidable, and the envelope histogram records its cost. An
// indication is parsed into a codec-owned view whose octet strings alias
// wire (see the Codec.Envelope contract); every other type is decoded.
func (c *PERCodec) Envelope(wire []byte) (Envelope, error) {
	t0 := time.Now()
	env, err := c.envelope(wire)
	return env, enveloped(SchemeASN, t0, err)
}

// Encode implements Codec.
func (c *FlatCodec) Encode(pdu PDU) ([]byte, error) {
	t0 := time.Now()
	wire, err := c.encode(pdu)
	return wire, observed(SchemeFB, "encode", pdu, t0, err)
}

// EncodeAppend implements Codec. It shares Encode's histogram: the
// operation is the same encode pass, only the buffer discipline differs.
func (c *FlatCodec) EncodeAppend(dst []byte, pdu PDU) ([]byte, error) {
	t0 := time.Now()
	wire, err := c.encodeAppend(dst, pdu)
	return wire, observed(SchemeFB, "encode", pdu, t0, err)
}

// Decode implements Codec.
func (c *FlatCodec) Decode(wire []byte) (PDU, error) {
	t0 := time.Now()
	pdu, err := c.decode(wire)
	return pdu, observed(SchemeFB, "decode", pdu, t0, err)
}

// Envelope implements Codec: O(1) slot reads, no decode pass — the
// envelope histogram records exactly that near-constant cost.
func (c *FlatCodec) Envelope(wire []byte) (Envelope, error) {
	t0 := time.Now()
	env, err := c.envelope(wire)
	return env, enveloped(SchemeFB, t0, err)
}
