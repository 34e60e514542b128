package e2ap

import (
	"errors"
	"fmt"

	"flexric/internal/trace"
)

// Codec errors.
var (
	// ErrUnknownType reports a message type the codec cannot handle.
	ErrUnknownType = errors.New("e2ap: unknown message type")
	// ErrBadMessage reports a structurally invalid wire message.
	ErrBadMessage = errors.New("e2ap: malformed message")
)

// Codec translates between the E2AP intermediate representation and a wire
// format. Implementations are NOT safe for concurrent use — each
// connection owns its codec instances, which lets them reuse scratch
// buffers without locking (the encode path of a 1 ms-period indication
// stream must not allocate per message).
type Codec interface {
	// Name identifies the encoding scheme ("asn" or "fb").
	Name() string
	// Encode serializes pdu. The returned slice is valid until the next
	// Encode call on this codec.
	Encode(pdu PDU) ([]byte, error)
	// EncodeAppend serializes pdu and appends the wire bytes to dst
	// (which may be nil), returning the extended slice. Unlike Encode,
	// the codec retains nothing: the caller owns the result, which
	// makes this the allocation-free building block of the indication
	// fast path when dst comes from internal/bufpool. On error dst's
	// contents are unspecified and the caller should discard it.
	EncodeAppend(dst []byte, pdu PDU) ([]byte, error)
	// Decode fully materializes a PDU from wire bytes.
	Decode(wire []byte) (PDU, error)
	// Envelope extracts the routing information (type, request ID, RAN
	// function ID) needed to dispatch a message. For zero-copy formats
	// this is O(1) and defers everything else; for formats with an
	// explicit decode pass it parses every field. This asymmetry is
	// the controller-scalability effect measured in Fig. 8b. The
	// returned Envelope is a reused view: it, and for an indication
	// the header and payload slices obtained through it (which alias
	// wire under both schemes), are valid only until the next Envelope
	// call on this codec — receive loops dispatch one message fully
	// before reading the next, which is what lets them recycle frame
	// buffers. A PDU obtained through it belongs to the caller.
	Envelope(wire []byte) (Envelope, error)
}

// Envelope is a cheaply-obtained view of a wire message, sufficient for
// dispatch. PDU() materializes the full message on demand.
type Envelope interface {
	// Type identifies the E2AP procedure.
	Type() MessageType
	// RequestID returns the RIC request ID for functional procedures
	// (zero for global procedures).
	RequestID() RequestID
	// RANFunctionID returns the addressed RAN function for functional
	// procedures (zero otherwise).
	RANFunctionID() uint16
	// PDU fully decodes the message into one the caller owns (nothing
	// in it aliases the wire buffer). Implementations may cache.
	PDU() (PDU, error)
	// IndicationPayload returns the SM-encoded indication message for
	// TypeIndication envelopes without materializing the PDU; nil
	// otherwise. The slice may alias the wire buffer.
	IndicationPayload() []byte
	// IndicationHeader is the header analogue of IndicationPayload.
	IndicationHeader() []byte
	// Trace returns the distributed-tracing context carried by the
	// message (zero when the message was not sampled or the procedure
	// does not carry one). Like RequestID it must not require a full
	// decode on zero-copy formats.
	Trace() trace.Context
}

// TraceOf extracts the trace context stamped into a PDU at creation;
// zero for procedures that do not carry one.
func TraceOf(pdu PDU) trace.Context {
	switch m := pdu.(type) {
	case *SubscriptionRequest:
		return m.Trace
	case *Indication:
		return m.Trace
	case *ControlRequest:
		return m.Trace
	default:
		return trace.Context{}
	}
}

// decodedEnvelope wraps an already-materialized PDU (used by codecs with
// an explicit decode pass).
type decodedEnvelope struct {
	pdu PDU
	// view marks pdu as a codec-owned *Indication whose octet strings
	// alias the wire buffer: the accessors hand those out as they are,
	// PDU() hands out a copy the caller owns.
	view bool
}

func (d *decodedEnvelope) Type() MessageType { return d.pdu.MsgType() }

func (d *decodedEnvelope) RequestID() RequestID {
	switch m := d.pdu.(type) {
	case *SubscriptionRequest:
		return m.RequestID
	case *SubscriptionResponse:
		return m.RequestID
	case *SubscriptionFailure:
		return m.RequestID
	case *SubscriptionDeleteRequest:
		return m.RequestID
	case *SubscriptionDeleteResponse:
		return m.RequestID
	case *SubscriptionDeleteFailure:
		return m.RequestID
	case *Indication:
		return m.RequestID
	case *ControlRequest:
		return m.RequestID
	case *ControlAck:
		return m.RequestID
	case *ControlFailure:
		return m.RequestID
	case *ErrorIndication:
		return m.RequestID
	default:
		return RequestID{}
	}
}

func (d *decodedEnvelope) RANFunctionID() uint16 {
	switch m := d.pdu.(type) {
	case *SubscriptionRequest:
		return m.RANFunctionID
	case *SubscriptionResponse:
		return m.RANFunctionID
	case *SubscriptionFailure:
		return m.RANFunctionID
	case *SubscriptionDeleteRequest:
		return m.RANFunctionID
	case *SubscriptionDeleteResponse:
		return m.RANFunctionID
	case *SubscriptionDeleteFailure:
		return m.RANFunctionID
	case *Indication:
		return m.RANFunctionID
	case *ControlRequest:
		return m.RANFunctionID
	case *ControlAck:
		return m.RANFunctionID
	case *ControlFailure:
		return m.RANFunctionID
	case *ErrorIndication:
		return m.RANFunctionID
	default:
		return 0
	}
}

func (d *decodedEnvelope) PDU() (PDU, error) {
	if d.view {
		m := *d.pdu.(*Indication)
		m.Header = cloneOctets(m.Header)
		m.Payload = cloneOctets(m.Payload)
		m.CallProcessID = cloneOctets(m.CallProcessID)
		d.pdu, d.view = &m, false
	}
	return d.pdu, nil
}

// cloneOctets copies b the way a decoding pass materializes an octet
// string: empty decodes as nil.
func cloneOctets(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *decodedEnvelope) IndicationPayload() []byte {
	if m, ok := d.pdu.(*Indication); ok {
		return m.Payload
	}
	return nil
}

func (d *decodedEnvelope) IndicationHeader() []byte {
	if m, ok := d.pdu.(*Indication); ok {
		return m.Header
	}
	return nil
}

func (d *decodedEnvelope) Trace() trace.Context { return TraceOf(d.pdu) }

// Scheme names the two encoding schemes the SDK ships.
type Scheme string

// Shipped encoding schemes.
const (
	SchemeASN Scheme = "asn" // ASN.1-PER-style
	SchemeFB  Scheme = "fb"  // FlatBuffers-style
)

// NewCodec returns a fresh codec instance for the scheme. Each connection
// (or goroutine) must use its own instance.
func NewCodec(s Scheme) (Codec, error) {
	switch s {
	case SchemeASN:
		return NewPERCodec(), nil
	case SchemeFB:
		return NewFlatCodec(), nil
	default:
		return nil, fmt.Errorf("e2ap: unknown scheme %q", s)
	}
}

// MustCodec is NewCodec that panics on error, for tests and examples.
func MustCodec(s Scheme) Codec {
	c, err := NewCodec(s)
	if err != nil {
		panic(err)
	}
	return c
}
