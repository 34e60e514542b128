package e2ap

import (
	"fmt"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/flat"
	"flexric/internal/encoding/walk"
	"flexric/internal/trace"
)

// FlatCodec encodes E2AP messages in the FlatBuffers-style zero-copy
// format. Envelope() is O(1): the message type and routing fields live in
// fixed root-table slots and are read directly from the wire bytes, and an
// indication's SM payload is returned as an aliased sub-slice without any
// decode pass. This is the mechanism behind the controller CPU advantage
// in Fig. 8b ("FB's design avoids an explicit decoding step, reading
// directly from raw bytes"). Not safe for concurrent use.
type FlatCodec struct {
	b flat.Builder
	// ab is the append-path builder: it adopts the caller's destination
	// buffer for the duration of one encodeAppend, keeping b's scratch
	// (and the Encode contract) untouched.
	ab flat.Builder
	// fw and rd interpret field walks into the builder in use and out of
	// env's table.
	fw flatWriter
	rd flatReader
	// env is the reused dispatch view handed out by envelope(); see the
	// Codec.Envelope validity contract.
	env flatEnvelope
}

// NewFlatCodec returns a FlatBuffers-style codec.
func NewFlatCodec() *FlatCodec {
	c := &FlatCodec{}
	c.b = *flat.NewBuilder(512)
	return c
}

// Name implements Codec.
func (*FlatCodec) Name() string { return string(SchemeFB) }

// Root-table slot layout, shared by all message types so that Envelope can
// read routing fields without knowing the type:
//
//	slot 0: message type (u8)
//	slot 1: request ID, requestor<<16|instance (u32) — functional msgs
//	slot 2: RAN function ID (u32) — functional msgs
//	slot 3: transaction ID (u8) — global msgs
//	slot 4: cause, type<<8|value (u32)
//	slot 5+: per-type fields
const (
	slType = iota
	slReqID
	slRANFunc
	slTransaction
	slCause
	slA // first per-type slot
	slB
	slC
	slD
	slE
	slF
	// Trace context slots, shared across traced message types so that
	// Envelope.Trace is an O(1) slot read without knowing the type.
	slTraceID
	slTraceSpan
	numSlots
)

func packReqID(id RequestID) uint32 { return uint32(id.Requestor)<<16 | uint32(id.Instance) }
func unpackReqID(v uint32) RequestID {
	return RequestID{Requestor: uint16(v >> 16), Instance: uint16(v)}
}
func packCause(c Cause) uint32   { return uint32(c.Type)<<8 | uint32(c.Value) }
func unpackCause(v uint32) Cause { return Cause{Type: CauseType(v >> 8), Value: uint8(v)} }

func (c *FlatCodec) encode(pdu PDU) ([]byte, error) {
	b := &c.b
	b.Reset()
	if err := c.encodeInto(b, pdu); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (c *FlatCodec) encodeAppend(dst []byte, pdu PDU) ([]byte, error) {
	b := &c.ab
	b.ResetAppend(dst)
	err := c.encodeInto(b, pdu)
	// Positions inside the message are base-relative, so the appended
	// bytes are identical to a from-scratch Encode of the same PDU.
	out := b.BytesWithPrefix()
	b.Detach() // do not retain the caller's buffer
	if err != nil {
		return nil, err
	}
	return out, nil
}

// encodeInto builds pdu into b, which the caller has Reset (or
// ResetAppend'ed).
func (c *FlatCodec) encodeInto(b *flat.Builder, pdu PDU) error {
	if m, ok := pdu.(message); ok {
		c.fw.encode(b, m)
		return nil
	}
	m, ok := pdu.(*Indication)
	if !ok {
		return fmt.Errorf("%w: %T", ErrUnknownType, pdu)
	}
	// Out-of-line values must exist before the root table starts: the
	// header, payload and call process ID go to slots slB, slC and slD.
	var refs [3]uint32
	for i, v := range [3][]byte{m.Header, m.Payload, m.CallProcessID} {
		if v != nil {
			refs[i] = b.CreateByteVector(v)
		}
	}
	b.StartTable(numSlots)
	b.AddUint8(slType, uint8(TypeIndication))
	for i, ref := range refs {
		if ref != 0 {
			b.AddRef(slB+i, ref)
		}
	}
	b.AddUint32(slReqID, packReqID(m.RequestID))
	b.AddUint32(slRANFunc, uint32(m.RANFunctionID))
	b.AddUint64(slA, uint64(m.ActionID)<<40|uint64(m.Class)<<32|uint64(m.SN))
	if m.Trace.Valid() {
		b.AddUint64(slTraceID, m.Trace.TraceID)
		b.AddUint64(slTraceSpan, m.Trace.SpanID)
	}
	b.Finish(b.EndTable())
	return nil
}

func (c *FlatCodec) envelope(wire []byte) (Envelope, error) {
	tab, err := flat.GetRoot(wire)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	t := tab.Uint8(slType)
	if int(t) >= NumMessageTypes {
		return nil, fmt.Errorf("%w: type %d", ErrUnknownType, t)
	}
	// Reuse the codec-owned view instead of allocating one per message;
	// clearing the cached PDU is what keeps a stale full decode from
	// leaking into the next message (see the Codec.Envelope contract).
	c.env = flatEnvelope{tab: tab, typ: MessageType(t), size: len(wire), rd: &c.rd}
	if manyRefs[t] {
		if _, err := c.env.PDU(); err != nil {
			return nil, err
		}
	}
	return &c.env, nil
}

func (c *FlatCodec) decode(wire []byte) (PDU, error) {
	env, err := c.envelope(wire)
	if err != nil {
		return nil, err
	}
	return env.PDU()
}

// flatEnvelope is a lazy view over a flat-encoded message.
type flatEnvelope struct {
	tab  flat.Table
	typ  MessageType
	size int // of the wire message
	pdu  PDU // cached full decode
	rd   *flatReader
}

func (e *flatEnvelope) Type() MessageType { return e.typ }

func (e *flatEnvelope) RequestID() RequestID { return unpackReqID(e.tab.Uint32(slReqID)) }

func (e *flatEnvelope) RANFunctionID() uint16 { return uint16(e.tab.Uint32(slRANFunc)) }

func (e *flatEnvelope) IndicationPayload() []byte {
	if e.typ != TypeIndication {
		return nil
	}
	return e.tab.Bytes(slC)
}

func (e *flatEnvelope) IndicationHeader() []byte {
	if e.typ != TypeIndication {
		return nil
	}
	return e.tab.Bytes(slB)
}

func (e *flatEnvelope) Trace() trace.Context { return flatGetTrace(e.tab) }

// PDU fails only when the copies outgrow the message (see
// walk.FlatReader); an absent or unreadable field decodes as its zero
// value. A type that can outgrow it is decoded by Envelope, so PDU never
// fails on an envelope Envelope returned.
func (e *flatEnvelope) PDU() (PDU, error) {
	if e.pdu == nil {
		pdu, err := e.decode()
		if err != nil {
			return nil, err
		}
		e.pdu = pdu
	}
	return e.pdu, nil
}

// decode materializes the message the envelope views.
func (e *flatEnvelope) decode() (PDU, error) {
	tab := e.tab
	if e.typ == TypeIndication {
		v := tab.Uint64(slA)
		return &Indication{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			ActionID:      uint8(v >> 40),
			Class:         IndicationClass(uint8(v >> 32)),
			SN:            uint32(v),
			Header:        cloneOctets(tab.Bytes(slB)),
			Payload:       cloneOctets(tab.Bytes(slC)),
			CallProcessID: cloneOctets(tab.Bytes(slD)),
			Trace:         flatGetTrace(tab),
		}, nil
	}
	m := newMessage[e.typ]()
	e.rd.Begin(tab, e.size)
	m.walk(e.rd)
	if err := e.rd.Done(); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadMessage, e.typ, err)
	}
	return m, nil
}

// flatGetTrace reads the trace-context slots; absent slots read as zero,
// which is exactly the invalid Context. Like PER, it reads a context
// without a TraceID as none, so a decoded message re-encodes to itself.
func flatGetTrace(tab flat.Table) trace.Context {
	if id := tab.Uint64(slTraceID); id != 0 {
		return trace.Context{TraceID: id, SpanID: tab.Uint64(slTraceSpan)}
	}
	return trace.Context{}
}

func packPLMN(p PLMN) uint32   { return uint32(p.MCC)<<10 | uint32(p.MNC) }
func unpackPLMN(v uint32) PLMN { return PLMN{MCC: uint16(v >> 10), MNC: uint16(v & 0x3FF)} }

// flatWriter is the flat encoder of a field walk: package walk's, with
// E2AP's own kinds and the root slot layout.
type flatWriter struct {
	walk.FlatWriter
	u64s []uint64 // scratch for u16s
}

// encode builds m into b as the root table.
func (w *flatWriter) encode(b *flat.Builder, m message) {
	w.Begin(b, numSlots)
	w.Put(slType, 1, uint64(m.MsgType()))
	m.walk(w)
	w.Finish()
}

func (w *flatWriter) enum(slot int, v *uint8, _ int) { w.U8(slot, v) }
func (w *flatWriter) optOctets(slot int, v *[]byte)  { w.Octets(slot, v) }

func (w *flatWriter) present(slot int, has *bool) bool {
	w.Put(slot, 0, 0)
	return *has
}

func (w *flatWriter) cause(slot int, v *Cause) { w.Put(slot, 4, uint64(packCause(*v))) }
func (w *flatWriter) reqID(v *RequestID)       { w.Put(slReqID, 4, uint64(packReqID(*v))) }

func (w *flatWriter) nodeID(slot int, v *GlobalE2NodeID) {
	w.B.StartTable(3)
	w.B.AddUint32(0, packPLMN(v.PLMN))
	w.B.AddUint8(1, uint8(v.Type))
	w.B.AddUint64(2, v.NodeID)
	w.Put(slot, 4, uint64(w.B.EndTable()))
}

func (w *flatWriter) ricID(slot int, v *GlobalRICID) {
	w.Put(slot, 8, uint64(packPLMN(v.PLMN))<<32|uint64(v.RICID))
}

func (w *flatWriter) traceCtx(v *trace.Context) {
	if v.Valid() {
		w.Put(slTraceID, 8, v.TraceID)
		w.Put(slTraceSpan, 8, v.SpanID)
	}
}

func (w *flatWriter) u16s(slot int, v *[]uint16) {
	w.u64s = w.u64s[:0]
	for _, x := range *v {
		w.u64s = append(w.u64s, uint64(x))
	}
	w.Put(slot, 4, uint64(w.B.CreateUint64Vector(w.u64s)))
}

func (w *flatWriter) strs(slot int, v *[]string) {
	w.List(slot, len(*v), 0)
	for _, s := range *v {
		w.Ref(w.B.CreateString(s))
	}
	w.End()
}

// flatReader is the flat decoder of a field walk: package walk's, with
// E2AP's own kinds. A string list is charged to the copy budget like
// the strings of list items: every entry can name one string.
type flatReader struct{ walk.FlatReader }

func (r *flatReader) enum(slot int, v *uint8, _ int) { r.U8(slot, v) }
func (r *flatReader) optOctets(slot int, v *[]byte)  { r.Octets(slot, v) }
func (r *flatReader) cause(slot int, v *Cause)       { *v = unpackCause(r.Top().Uint32(slot)) }
func (r *flatReader) reqID(v *RequestID)             { *v = unpackReqID(r.Top().Uint32(slReqID)) }
func (r *flatReader) traceCtx(v *trace.Context)      { *v = flatGetTrace(r.Top()) }

func (r *flatReader) present(slot int, has *bool) bool {
	*has = r.Top().Has(slot)
	return *has
}

func (r *flatReader) nodeID(slot int, v *GlobalE2NodeID) {
	t := r.Top().SubTable(slot)
	*v = GlobalE2NodeID{PLMN: unpackPLMN(t.Uint32(0)), Type: NodeType(t.Uint8(1)), NodeID: t.Uint64(2)}
}

func (r *flatReader) ricID(slot int, v *GlobalRICID) {
	x := r.Top().Uint64(slot)
	*v = GlobalRICID{PLMN: unpackPLMN(uint32(x >> 32)), RICID: uint32(x)}
}

func (r *flatReader) u16s(slot int, v *[]uint16) {
	t := r.Top()
	if n := t.VectorLen(slot); n > 0 {
		*v = make([]uint16, n)
		for i := range *v {
			(*v)[i] = uint16(t.Uint64VectorAt(slot, i))
		}
	}
}

func (r *flatReader) strs(slot int, v *[]string) {
	t := r.Top()
	if n := t.VectorLen(slot); n > 0 {
		*v = make([]string, n)
		for i := range *v {
			b := t.BytesVectorAt(slot, i)
			if !r.Charge(len(b)) {
				*v = nil
				return
			}
			(*v)[i] = string(b)
		}
	}
}

// manyRefs marks the walked types whose walk opens a list or a string
// list: their flat messages can refer to one string from many places,
// so only a full decode tells whether the copies fit the budget, and
// their flat Envelope decodes at once. The others stay lazy.
var manyRefs = func() (m [NumMessageTypes]bool) {
	for t, newM := range newMessage {
		if newM != nil {
			p := refProbe{fields: &perWriter{PERWriter: walk.PERWriter{W: asn1per.NewWriter(64)}}}
			newM().walk(&p)
			m[t] = p.found
		}
	}
	return m
}()

// refProbe walks a zero message, noting a list or a string list.
type refProbe struct {
	fields
	found bool
}

func (p *refProbe) List(slot, n int, size uintptr) int {
	p.found = true
	return p.fields.List(slot, n, size)
}

func (p *refProbe) strs(slot int, v *[]string) {
	p.found = true
	p.fields.strs(slot, v)
}
