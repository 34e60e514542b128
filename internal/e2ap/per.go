package e2ap

import (
	"fmt"
	"unsafe"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/walk"
	"flexric/internal/trace"
)

// PERCodec encodes E2AP messages in the ASN.1-PER-style bit format.
// Envelope() performs a full decode pass (PER fields are bit-packed
// sequentially, so routing fields cannot be reached without parsing),
// which is the CPU cost the paper attributes to ASN.1 on the controller
// (Fig. 8b). For indications that pass parses every field but copies
// none: the octet strings of the codec-owned view alias the frame. Not
// safe for concurrent use.
type PERCodec struct {
	w asn1per.Writer
	// wa is the append-path writer: it adopts the caller's destination
	// buffer for the duration of one encodeAppend, keeping w's scratch
	// (and the Encode contract) untouched.
	wa asn1per.Writer
	// pw interprets field walks into the writer in use, pr out of its
	// reader, which envelope and the Indication arm read too.
	pw perWriter
	pr perReader
	// denv is the reused dispatch view handed out by envelope(), and ind
	// the indication it points at when the message is one; see the
	// Codec.Envelope validity contract.
	denv decodedEnvelope
	ind  Indication
}

// NewPERCodec returns a PER-style codec with preallocated scratch space.
func NewPERCodec() *PERCodec { return &PERCodec{} }

// Name implements Codec.
func (*PERCodec) Name() string { return string(SchemeASN) }

func (c *PERCodec) encode(pdu PDU) ([]byte, error) {
	c.w.Reset()
	return c.encodeInto(&c.w, pdu)
}

func (c *PERCodec) encodeAppend(dst []byte, pdu PDU) ([]byte, error) {
	c.wa.ResetAppend(dst)
	out, err := c.encodeInto(&c.wa, pdu)
	c.wa.ResetAppend(nil) // do not retain the caller's buffer
	return out, err
}

func (c *PERCodec) encodeInto(w *asn1per.Writer, pdu PDU) ([]byte, error) {
	w.WriteBits(uint64(pdu.MsgType()), 8)
	if err := c.encodeBody(w, pdu); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func (c *PERCodec) encodeBody(w *asn1per.Writer, pdu PDU) error {
	switch m := pdu.(type) {
	case *Indication:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
		w.WriteBits(uint64(m.ActionID), 8)
		w.WriteBits(uint64(m.SN), 32)
		if err := w.WriteEnum(int(m.Class), 2); err != nil {
			return err
		}
		w.WriteOctets(m.Header)
		w.WriteOctets(m.Payload)
		w.WriteBool(m.CallProcessID != nil)
		if m.CallProcessID != nil {
			w.WriteOctets(m.CallProcessID)
		}
		perPutTrace(w, m.Trace)
	case message:
		c.pw = perWriter{PERWriter: walk.PERWriter{W: w}}
		m.walk(&c.pw)
		return c.pw.err
	default:
		return fmt.Errorf("%w: %T", ErrUnknownType, pdu)
	}
	return nil
}

// readType positions the codec's reader after the leading message type.
func (c *PERCodec) readType(wire []byte) (MessageType, error) {
	c.pr.R.Reset(wire)
	tv, err := c.pr.R.ReadBits(8)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if tv >= uint64(NumMessageTypes) {
		return 0, fmt.Errorf("%w: type %d", ErrUnknownType, tv)
	}
	return MessageType(tv), nil
}

func (c *PERCodec) decode(wire []byte) (PDU, error) {
	t, err := c.readType(wire)
	if err != nil {
		return nil, err
	}
	pdu, err := c.decodeBody(t)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadMessage, t, err)
	}
	return pdu, nil
}

func (c *PERCodec) envelope(wire []byte) (Envelope, error) {
	t, err := c.readType(wire)
	if err != nil {
		return nil, err
	}
	var pdu PDU
	view := t == TypeIndication
	if view {
		c.ind = Indication{}
		pdu, err = &c.ind, perGetIndication(&c.pr.R, &c.ind, (*asn1per.Reader).ReadOctetsZeroCopy)
	} else {
		pdu, err = c.decodeBody(t)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadMessage, t, err)
	}
	// Reuse the codec-owned view instead of boxing a fresh one per
	// message (see the Codec.Envelope validity contract).
	c.denv = decodedEnvelope{pdu: pdu, view: view}
	return &c.denv, nil
}

// perGetIndication parses an indication body into m, reading its octet
// strings with octets: ReadOctets for a caller-owned message,
// ReadOctetsZeroCopy for a view whose strings alias the input.
func perGetIndication(r *asn1per.Reader, m *Indication, octets func(*asn1per.Reader) ([]byte, error)) error {
	var err error
	if m.RequestID, m.RANFunctionID, err = perGetFuncHdr(r); err != nil {
		return err
	}
	if err = perGetU8(r, &m.ActionID); err != nil {
		return err
	}
	sn, err := r.ReadBits(32)
	if err != nil {
		return err
	}
	m.SN = uint32(sn)
	cl, err := r.ReadEnum(2)
	if err != nil {
		return err
	}
	m.Class = IndicationClass(cl)
	if m.Header, err = octets(r); err != nil {
		return err
	}
	if m.Payload, err = octets(r); err != nil {
		return err
	}
	has, err := r.ReadBool()
	if err != nil {
		return err
	}
	if has {
		if m.CallProcessID, err = octets(r); err != nil {
			return err
		}
	}
	m.Trace, err = perGetTrace(r)
	return err
}

// decodeBody decodes the body of a type-t message from c.pr.R.
func (c *PERCodec) decodeBody(t MessageType) (PDU, error) {
	if t == TypeIndication {
		m := &Indication{}
		if err := perGetIndication(&c.pr.R, m, (*asn1per.Reader).ReadOctets); err != nil {
			return nil, err
		}
		return m, nil
	}
	m := newMessage[t]()
	m.walk(&c.pr)
	return m, c.pr.Done()
}

func perPutReqID(w *asn1per.Writer, id RequestID) {
	w.WriteBits(uint64(id.Requestor), 16)
	w.WriteBits(uint64(id.Instance), 16)
}

func perGetReqID(r *asn1per.Reader) (RequestID, error) {
	rq, err := r.ReadBits(16)
	if err != nil {
		return RequestID{}, err
	}
	in, err := r.ReadBits(16)
	if err != nil {
		return RequestID{}, err
	}
	return RequestID{Requestor: uint16(rq), Instance: uint16(in)}, nil
}

func perGetFuncHdr(r *asn1per.Reader) (RequestID, uint16, error) {
	id, err := perGetReqID(r)
	if err != nil {
		return RequestID{}, 0, err
	}
	rf, err := r.ReadBits(16)
	if err != nil {
		return RequestID{}, 0, err
	}
	return id, uint16(rf), nil
}

func perGetU8(r *asn1per.Reader, dst *uint8) error {
	v, err := r.ReadBits(8)
	if err != nil {
		return err
	}
	*dst = uint8(v)
	return nil
}

// perPutTrace appends the optional trace context: a presence bit, then
// TraceID and SpanID as two 64-bit fields. It trails the message body so
// untraced messages cost exactly one bit.
func perPutTrace(w *asn1per.Writer, tc trace.Context) {
	w.WriteBool(tc.Valid())
	if tc.Valid() {
		w.WriteBits(tc.TraceID, 64)
		w.WriteBits(tc.SpanID, 64)
	}
}

// perGetTrace reads what perPutTrace wrote. A context without a TraceID
// is no context, whatever the span bits say: no encoder writes one.
func perGetTrace(r *asn1per.Reader) (trace.Context, error) {
	has, err := r.ReadBool()
	if err != nil || !has {
		return trace.Context{}, err
	}
	var tc trace.Context
	if tc.TraceID, err = r.ReadBits(64); err != nil {
		return trace.Context{}, err
	}
	if tc.SpanID, err = r.ReadBits(64); err != nil || !tc.Valid() {
		return trace.Context{}, err
	}
	return tc, nil
}

// perWriter is the PER encoder of a field walk: package walk's, with
// E2AP's own kinds. err holds the first enumeration out of range.
type perWriter struct {
	walk.PERWriter
	err error
}

func (p *perWriter) enum(_ int, v *uint8, card int) {
	if err := p.W.WriteEnum(int(*v), card); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *perWriter) optOctets(slot int, v *[]byte) {
	if has := *v != nil; p.present(slot, &has) {
		p.Octets(slot, v)
	}
}

func (p *perWriter) present(slot int, has *bool) bool {
	p.Bool(slot, has)
	return *has
}

func (p *perWriter) cause(_ int, v *Cause) {
	_ = p.W.WriteEnum(int(v.Type), 5)
	p.W.WriteBits(uint64(v.Value), 8)
}

func (p *perWriter) reqID(v *RequestID) { perPutReqID(p.W, *v) }

func (p *perWriter) plmn(v PLMN) {
	_ = p.W.WriteConstrainedInt(int64(v.MCC), 0, 999)
	_ = p.W.WriteConstrainedInt(int64(v.MNC), 0, 999)
}

func (p *perWriter) nodeID(_ int, v *GlobalE2NodeID) {
	p.plmn(v.PLMN)
	_ = p.W.WriteEnum(int(v.Type), 6)
	p.W.WriteUint(v.NodeID)
}

func (p *perWriter) ricID(_ int, v *GlobalRICID) {
	p.plmn(v.PLMN)
	p.W.WriteBits(uint64(v.RICID), 20)
}

func (p *perWriter) traceCtx(v *trace.Context) { perPutTrace(p.W, *v) }

func (p *perWriter) u16s(slot int, v *[]uint16) {
	p.List(slot, len(*v), 0)
	for i := range *v {
		p.U16(slot, &(*v)[i])
	}
}

func (p *perWriter) strs(slot int, v *[]string) {
	p.List(slot, len(*v), 0)
	for i := range *v {
		p.Str(slot, &(*v)[i])
	}
}

// perReader is the PER decoder of a field walk: package walk's, with
// E2AP's own kinds. Those read on after a failure, but Fail keeps the
// first error and every list after it reads as empty.
type perReader struct{ walk.PERReader }

func (p *perReader) enum(_ int, v *uint8, card int) {
	e, err := p.R.ReadEnum(card)
	*v = uint8(e)
	p.Fail(err)
}

func (p *perReader) optOctets(slot int, v *[]byte) {
	var has bool
	if p.present(slot, &has) {
		p.Octets(slot, v)
	}
}

func (p *perReader) present(slot int, has *bool) bool {
	p.Bool(slot, has)
	return *has
}

func (p *perReader) cause(_ int, v *Cause) {
	t, err := p.R.ReadEnum(5)
	p.Fail(err)
	*v = Cause{Type: CauseType(t), Value: uint8(p.Bits(8))}
}

func (p *perReader) reqID(v *RequestID) {
	*v = RequestID{Requestor: uint16(p.Bits(16)), Instance: uint16(p.Bits(16))}
}

func (p *perReader) plmn() PLMN {
	mcc, err := p.R.ReadConstrainedInt(0, 999)
	p.Fail(err)
	mnc, err := p.R.ReadConstrainedInt(0, 999)
	p.Fail(err)
	return PLMN{MCC: uint16(mcc), MNC: uint16(mnc)}
}

func (p *perReader) nodeID(_ int, v *GlobalE2NodeID) {
	v.PLMN = p.plmn()
	t, err := p.R.ReadEnum(6)
	p.Fail(err)
	id, err := p.R.ReadUint()
	p.Fail(err)
	v.Type, v.NodeID = NodeType(t), id
}

func (p *perReader) ricID(_ int, v *GlobalRICID) {
	v.PLMN = p.plmn()
	v.RICID = uint32(p.Bits(20))
}

func (p *perReader) traceCtx(v *trace.Context) {
	tc, err := perGetTrace(&p.R)
	*v = tc
	p.Fail(err)
}

func (p *perReader) u16s(slot int, v *[]uint16) {
	if n := p.List(slot, 0, unsafe.Sizeof(uint16(0))); n > 0 {
		*v = make([]uint16, n)
		for i := range *v {
			p.U16(slot, &(*v)[i])
		}
	}
}

func (p *perReader) strs(slot int, v *[]string) {
	if n := p.List(slot, 0, unsafe.Sizeof("")); n > 0 {
		*v = make([]string, n)
		for i := range *v {
			p.Str(slot, &(*v)[i])
		}
	}
}
