package e2ap

import (
	"errors"
	"fmt"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/flat"
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

// PDU fails only when the copies outgrow the copy budget (see
// flatReader); an absent or unreadable field decodes as its zero value.
// A type that can outgrow it is decoded by Envelope, so PDU never fails
// on an envelope Envelope returned.
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
	e.rd.frames = append(e.rd.frames[:0], flatRead{tab: tab})
	e.rd.left, e.rd.err = e.size, nil
	m.walk(e.rd)
	if e.rd.err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadMessage, e.typ, e.rd.err)
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

// flatWriter is the flat encoder of a field walk. A flat.Builder builds
// one table at a time, and every string, vector and sub-table a table
// refers to must exist before the table starts. So the writer creates
// out-of-line values as the walk meets them, and parks the slots of
// every open table on a stack until the table ends. EndTable lays slots
// out by index, so the order they are parked in changes no byte.
type flatWriter struct {
	b      *flat.Builder
	slots  []parkedSlot // slots of every open table, innermost last
	frames []flatFrame  // open tables and lists, innermost last
	refs   []uint32     // finished items of every open list
	u64s   []uint64     // scratch for u16s
}

// parkedSlot is a slot of an open table: size is 1, 4 or 8 bytes. A
// reference is a u32 in the table, so it parks as one.
type parkedSlot struct {
	slot int
	size uint8
	val  uint64
}

// flatFrame is an open table (mark: its first parked slot; width: one
// past the highest slot its walk named) or list (mark: its first ref;
// slot: its slot in the enclosing table).
type flatFrame struct {
	list       bool
	slot, mark int
	width      int
}

// encode builds m into b as the root table.
func (w *flatWriter) encode(b *flat.Builder, m message) {
	w.b = b
	w.slots, w.refs = w.slots[:0], w.refs[:0]
	w.frames = append(w.frames[:0], flatFrame{width: numSlots})
	w.put(slType, 1, uint64(m.MsgType()))
	m.walk(w)
	b.Finish(w.table(w.frames[0]))
}

// at widens the innermost table to hold slot.
func (w *flatWriter) at(slot int) {
	f := &w.frames[len(w.frames)-1]
	f.width = max(f.width, slot+1)
}

func (w *flatWriter) put(slot int, size uint8, v uint64) {
	w.at(slot)
	w.slots = append(w.slots, parkedSlot{slot, size, v})
}

// table builds frame f's parked slots into a table.
func (w *flatWriter) table(f flatFrame) uint32 {
	w.b.StartTable(f.width)
	for _, s := range w.slots[f.mark:] {
		switch s.size {
		case 1:
			w.b.AddUint8(s.slot, uint8(s.val))
		case 4:
			w.b.AddUint32(s.slot, uint32(s.val))
		default:
			w.b.AddUint64(s.slot, s.val)
		}
	}
	w.slots = w.slots[:f.mark]
	return w.b.EndTable()
}

func (w *flatWriter) u8(slot int, v *uint8)          { w.put(slot, 1, uint64(*v)) }
func (w *flatWriter) u16(slot int, v *uint16)        { w.put(slot, 4, uint64(*v)) }
func (w *flatWriter) u32(slot int, v *uint32)        { w.put(slot, 4, uint64(*v)) }
func (w *flatWriter) enum(slot int, v *uint8, _ int) { w.u8(slot, v) }
func (w *flatWriter) str(slot int, v *string)        { w.put(slot, 4, uint64(w.b.CreateString(*v))) }

func (w *flatWriter) bool(slot int, v *bool) {
	var b uint64
	if *v {
		b = 1
	}
	w.put(slot, 1, b)
}

func (w *flatWriter) octets(slot int, v *[]byte) {
	if *v == nil {
		w.at(slot)
		return
	}
	w.put(slot, 4, uint64(w.b.CreateByteVector(*v)))
}

func (w *flatWriter) optOctets(slot int, v *[]byte) { w.octets(slot, v) }

func (w *flatWriter) present(slot int, has *bool) bool {
	w.at(slot)
	return *has
}

func (w *flatWriter) cause(slot int, v *Cause) { w.put(slot, 4, uint64(packCause(*v))) }
func (w *flatWriter) reqID(v *RequestID)       { w.put(slReqID, 4, uint64(packReqID(*v))) }

func (w *flatWriter) nodeID(slot int, v *GlobalE2NodeID) {
	w.b.StartTable(3)
	w.b.AddUint32(0, packPLMN(v.PLMN))
	w.b.AddUint8(1, uint8(v.Type))
	w.b.AddUint64(2, v.NodeID)
	w.put(slot, 4, uint64(w.b.EndTable()))
}

func (w *flatWriter) ricID(slot int, v *GlobalRICID) {
	w.put(slot, 8, uint64(packPLMN(v.PLMN))<<32|uint64(v.RICID))
}

func (w *flatWriter) traceCtx(v *trace.Context) {
	if v.Valid() {
		w.put(slTraceID, 8, v.TraceID)
		w.put(slTraceSpan, 8, v.SpanID)
	}
}

func (w *flatWriter) u16s(slot int, v *[]uint16) {
	w.u64s = w.u64s[:0]
	for _, x := range *v {
		w.u64s = append(w.u64s, uint64(x))
	}
	w.put(slot, 4, uint64(w.b.CreateUint64Vector(w.u64s)))
}

func (w *flatWriter) strs(slot int, v *[]string) {
	w.list(slot, len(*v))
	for _, s := range *v {
		w.refs = append(w.refs, w.b.CreateString(s))
	}
	w.end()
}

func (w *flatWriter) list(slot, n int) int {
	w.frames = append(w.frames, flatFrame{list: true, slot: slot, mark: len(w.refs)})
	return n
}

func (w *flatWriter) item(int) { w.frames = append(w.frames, flatFrame{mark: len(w.slots)}) }

func (w *flatWriter) end() {
	f := w.frames[len(w.frames)-1]
	w.frames = w.frames[:len(w.frames)-1]
	if !f.list {
		w.refs = append(w.refs, w.table(f))
		return
	}
	ref := w.b.CreateRefVector(w.refs[f.mark:])
	w.refs = w.refs[:f.mark]
	w.put(f.slot, 4, uint64(ref))
}

// flatReader is the flat decoder of a field walk: a stack of the tables
// being read, each with the slot of the list vector it is open on. left
// is what the body can still hold of the strings and octets copied out
// of list items and string lists. Those are the reads a message can
// repeat, since every item can refer to one string; so copying more
// than the body holds means a hostile buffer, and err is set. A read
// outside them happens once per slot and is not counted.
type flatReader struct {
	frames []flatRead
	left   int
	err    error
}

// errCopyBudget reports a flat message whose copies outgrow its body.
var errCopyBudget = errors.New("strings copied outgrow the message")

// charge counts a copy of n bytes against the budget.
func (r *flatReader) charge(n int) bool {
	if r.left -= n; r.left < 0 {
		r.err = errCopyBudget
		return false
	}
	return true
}

// bytes returns the octets in slot, or nil once the copies made in list
// items outgrow the body.
func (r *flatReader) bytes(slot int) []byte {
	b := r.top().Bytes(slot)
	if len(r.frames) > 1 && !r.charge(len(b)) {
		return nil
	}
	return b
}

type flatRead struct {
	tab  flat.Table
	slot int
}

func (r *flatReader) top() flat.Table { return r.frames[len(r.frames)-1].tab }

func (r *flatReader) u8(slot int, v *uint8)          { *v = r.top().Uint8(slot) }
func (r *flatReader) u16(slot int, v *uint16)        { *v = uint16(r.top().Uint32(slot)) }
func (r *flatReader) u32(slot int, v *uint32)        { *v = r.top().Uint32(slot) }
func (r *flatReader) enum(slot int, v *uint8, _ int) { r.u8(slot, v) }
func (r *flatReader) bool(slot int, v *bool)         { *v = r.top().Bool(slot) }
func (r *flatReader) str(slot int, v *string)        { *v = string(r.bytes(slot)) }
func (r *flatReader) octets(slot int, v *[]byte)     { *v = cloneOctets(r.bytes(slot)) }
func (r *flatReader) cause(slot int, v *Cause)       { *v = unpackCause(r.top().Uint32(slot)) }
func (r *flatReader) reqID(v *RequestID)             { *v = unpackReqID(r.top().Uint32(slReqID)) }
func (r *flatReader) traceCtx(v *trace.Context)      { *v = flatGetTrace(r.top()) }

func (r *flatReader) optOctets(slot int, v *[]byte) { r.octets(slot, v) }

func (r *flatReader) present(slot int, has *bool) bool {
	*has = r.top().Has(slot)
	return *has
}

func (r *flatReader) nodeID(slot int, v *GlobalE2NodeID) {
	t := r.top().SubTable(slot)
	*v = GlobalE2NodeID{PLMN: unpackPLMN(t.Uint32(0)), Type: NodeType(t.Uint8(1)), NodeID: t.Uint64(2)}
}

func (r *flatReader) ricID(slot int, v *GlobalRICID) {
	x := r.top().Uint64(slot)
	*v = GlobalRICID{PLMN: unpackPLMN(uint32(x >> 32)), RICID: uint32(x)}
}

func (r *flatReader) u16s(slot int, v *[]uint16) {
	t := r.top()
	if n := t.VectorLen(slot); n > 0 {
		*v = make([]uint16, n)
		for i := range *v {
			(*v)[i] = uint16(t.Uint64VectorAt(slot, i))
		}
	}
}

func (r *flatReader) strs(slot int, v *[]string) {
	t := r.top()
	if n := t.VectorLen(slot); n > 0 {
		*v = make([]string, n)
		for i := range *v {
			b := t.BytesVectorAt(slot, i)
			if !r.charge(len(b)) {
				*v = nil
				return
			}
			(*v)[i] = string(b)
		}
	}
}

func (r *flatReader) list(slot, _ int) int {
	t := r.top()
	r.frames = append(r.frames, flatRead{tab: t, slot: slot})
	return t.VectorLen(slot)
}

func (r *flatReader) item(i int) {
	l := r.frames[len(r.frames)-1]
	r.frames = append(r.frames, flatRead{tab: l.tab.RefVectorAt(l.slot, i)})
}

func (r *flatReader) end() { r.frames = r.frames[:len(r.frames)-1] }

// manyRefs marks the walked types whose walk opens a list or a string
// list: their flat messages can refer to one string from many places,
// so only a full decode tells whether the copies fit the budget, and
// their flat Envelope decodes at once. The others stay lazy.
var manyRefs = func() (m [NumMessageTypes]bool) {
	for t, newM := range newMessage {
		if newM != nil {
			p := refProbe{fields: &perWriter{w: asn1per.NewWriter(64)}}
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

func (p *refProbe) list(slot, n int) int {
	p.found = true
	return p.fields.list(slot, n)
}

func (p *refProbe) strs(slot int, v *[]string) {
	p.found = true
	p.fields.strs(slot, v)
}
