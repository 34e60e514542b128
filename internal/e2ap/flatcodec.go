package e2ap

import (
	"fmt"

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
	if err := encodeFlatInto(b, pdu); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (c *FlatCodec) encodeAppend(dst []byte, pdu PDU) ([]byte, error) {
	b := &c.ab
	b.ResetAppend(dst)
	err := encodeFlatInto(b, pdu)
	// Positions inside the message are base-relative, so the appended
	// bytes are identical to a from-scratch Encode of the same PDU.
	out := b.BytesWithPrefix()
	b.Detach() // do not retain the caller's buffer
	if err != nil {
		return nil, err
	}
	return out, nil
}

// encodeFlatInto builds pdu into b, which the caller has Reset (or
// ResetAppend'ed).
func encodeFlatInto(b *flat.Builder, pdu PDU) error {
	// Out-of-line values must exist before the root table starts, so each
	// case first creates refs, then fills slots.
	type ref struct {
		slot int
		pos  uint32
	}
	var refs [8]ref
	nref := 0
	addRef := func(slot int, pos uint32) {
		refs[nref] = ref{slot, pos}
		nref++
	}
	var scalars func(b *flat.Builder)

	switch m := pdu.(type) {
	case *SetupRequest:
		addRef(slA, flatPutNodeID(b, m.NodeID))
		addRef(slB, flatPutRANFunctions(b, m.RANFunctions))
		addRef(slC, flatPutComponents(b, m.Components))
		tid := m.TransactionID
		scalars = func(b *flat.Builder) { b.AddUint8(slTransaction, tid) }
	case *SetupResponse:
		addRef(slB, flatPutU16s(b, m.Accepted))
		addRef(slC, flatPutRejected(b, m.Rejected))
		tid, ric := m.TransactionID, m.RICID
		scalars = func(b *flat.Builder) {
			b.AddUint8(slTransaction, tid)
			b.AddUint64(slA, uint64(packPLMN(ric.PLMN))<<32|uint64(ric.RICID))
		}
	case *SetupFailure:
		tid, cause, ttw := m.TransactionID, m.Cause, m.TimeToWaitMS
		scalars = func(b *flat.Builder) {
			b.AddUint8(slTransaction, tid)
			b.AddUint32(slCause, packCause(cause))
			b.AddUint32(slA, ttw)
		}
	case *ResetRequest:
		tid, cause := m.TransactionID, m.Cause
		scalars = func(b *flat.Builder) {
			b.AddUint8(slTransaction, tid)
			b.AddUint32(slCause, packCause(cause))
		}
	case *ResetResponse:
		tid := m.TransactionID
		scalars = func(b *flat.Builder) { b.AddUint8(slTransaction, tid) }
	case *ErrorIndication:
		mm := *m
		scalars = func(b *flat.Builder) {
			b.AddUint8(slTransaction, mm.TransactionID)
			if mm.HasRequestID {
				b.AddUint32(slReqID, packReqID(mm.RequestID))
			}
			b.AddUint32(slRANFunc, uint32(mm.RANFunctionID))
			b.AddUint32(slCause, packCause(mm.Cause))
		}
	case *ServiceUpdate:
		addRef(slA, flatPutRANFunctions(b, m.Added))
		addRef(slB, flatPutRANFunctions(b, m.Modified))
		addRef(slC, flatPutU16s(b, m.Deleted))
		tid := m.TransactionID
		scalars = func(b *flat.Builder) { b.AddUint8(slTransaction, tid) }
	case *ServiceUpdateAck:
		addRef(slA, flatPutU16s(b, m.Accepted))
		addRef(slB, flatPutRejected(b, m.Rejected))
		tid := m.TransactionID
		scalars = func(b *flat.Builder) { b.AddUint8(slTransaction, tid) }
	case *ServiceUpdateFailure:
		tid, cause, ttw := m.TransactionID, m.Cause, m.TimeToWaitMS
		scalars = func(b *flat.Builder) {
			b.AddUint8(slTransaction, tid)
			b.AddUint32(slCause, packCause(cause))
			b.AddUint32(slA, ttw)
		}
	case *ServiceQuery:
		addRef(slA, flatPutU16s(b, m.Accepted))
		tid := m.TransactionID
		scalars = func(b *flat.Builder) { b.AddUint8(slTransaction, tid) }
	case *NodeConfigUpdate:
		addRef(slA, flatPutComponents(b, m.Components))
		tid := m.TransactionID
		scalars = func(b *flat.Builder) { b.AddUint8(slTransaction, tid) }
	case *NodeConfigUpdateAck:
		ids := make([]uint32, len(m.Accepted))
		for i, s := range m.Accepted {
			ids[i] = b.CreateString(s)
		}
		addRef(slA, b.CreateRefVector(ids))
		tid := m.TransactionID
		scalars = func(b *flat.Builder) { b.AddUint8(slTransaction, tid) }
	case *NodeConfigUpdateFailure:
		tid, cause, ttw := m.TransactionID, m.Cause, m.TimeToWaitMS
		scalars = func(b *flat.Builder) {
			b.AddUint8(slTransaction, tid)
			b.AddUint32(slCause, packCause(cause))
			b.AddUint32(slA, ttw)
		}
	case *ConnectionUpdate:
		addRef(slA, flatPutConnItems(b, m.Add))
		addRef(slB, flatPutConnItems(b, m.Remove))
		addRef(slC, flatPutConnItems(b, m.Modify))
		tid := m.TransactionID
		scalars = func(b *flat.Builder) { b.AddUint8(slTransaction, tid) }
	case *ConnectionUpdateAck:
		addRef(slA, flatPutConnItems(b, m.Setup))
		fails := make([]uint32, len(m.Failed))
		for i, f := range m.Failed {
			addr := b.CreateString(f.Item.TNLAddress)
			b.StartTable(3)
			b.AddRef(0, addr)
			b.AddUint8(1, f.Item.Usage)
			b.AddUint32(2, packCause(f.Cause))
			fails[i] = b.EndTable()
		}
		addRef(slB, b.CreateRefVector(fails))
		tid := m.TransactionID
		scalars = func(b *flat.Builder) { b.AddUint8(slTransaction, tid) }
	case *ConnectionUpdateFailure:
		tid, cause, ttw := m.TransactionID, m.Cause, m.TimeToWaitMS
		scalars = func(b *flat.Builder) {
			b.AddUint8(slTransaction, tid)
			b.AddUint32(slCause, packCause(cause))
			b.AddUint32(slA, ttw)
		}
	case *SubscriptionRequest:
		if m.EventTrigger != nil {
			addRef(slA, b.CreateByteVector(m.EventTrigger))
		}
		acts := make([]uint32, len(m.Actions))
		for i, a := range m.Actions {
			var defRef uint32
			hasDef := a.Definition != nil
			if hasDef {
				defRef = b.CreateByteVector(a.Definition)
			}
			b.StartTable(3)
			b.AddUint8(0, a.ID)
			b.AddUint8(1, uint8(a.Type))
			if hasDef {
				b.AddRef(2, defRef)
			}
			acts[i] = b.EndTable()
		}
		addRef(slB, b.CreateRefVector(acts))
		id, rf, tr := m.RequestID, m.RANFunctionID, m.Trace
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(id))
			b.AddUint32(slRANFunc, uint32(rf))
			if tr.Valid() {
				b.AddUint64(slTraceID, tr.TraceID)
				b.AddUint64(slTraceSpan, tr.SpanID)
			}
		}
	case *SubscriptionResponse:
		if m.Admitted != nil {
			addRef(slA, b.CreateByteVector(m.Admitted))
		}
		nas := make([]uint32, len(m.NotAdmitted))
		for i, na := range m.NotAdmitted {
			b.StartTable(2)
			b.AddUint8(0, na.ID)
			b.AddUint32(1, packCause(na.Cause))
			nas[i] = b.EndTable()
		}
		addRef(slB, b.CreateRefVector(nas))
		id, rf := m.RequestID, m.RANFunctionID
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(id))
			b.AddUint32(slRANFunc, uint32(rf))
		}
	case *SubscriptionFailure:
		id, rf, cause := m.RequestID, m.RANFunctionID, m.Cause
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(id))
			b.AddUint32(slRANFunc, uint32(rf))
			b.AddUint32(slCause, packCause(cause))
		}
	case *SubscriptionDeleteRequest:
		id, rf := m.RequestID, m.RANFunctionID
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(id))
			b.AddUint32(slRANFunc, uint32(rf))
		}
	case *SubscriptionDeleteResponse:
		id, rf := m.RequestID, m.RANFunctionID
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(id))
			b.AddUint32(slRANFunc, uint32(rf))
		}
	case *SubscriptionDeleteFailure:
		id, rf, cause := m.RequestID, m.RANFunctionID, m.Cause
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(id))
			b.AddUint32(slRANFunc, uint32(rf))
			b.AddUint32(slCause, packCause(cause))
		}
	case *Indication:
		if m.Header != nil {
			addRef(slB, b.CreateByteVector(m.Header))
		}
		if m.Payload != nil {
			addRef(slC, b.CreateByteVector(m.Payload))
		}
		if m.CallProcessID != nil {
			addRef(slD, b.CreateByteVector(m.CallProcessID))
		}
		mm := *m
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(mm.RequestID))
			b.AddUint32(slRANFunc, uint32(mm.RANFunctionID))
			b.AddUint64(slA, uint64(mm.ActionID)<<40|uint64(mm.Class)<<32|uint64(mm.SN))
			if mm.Trace.Valid() {
				b.AddUint64(slTraceID, mm.Trace.TraceID)
				b.AddUint64(slTraceSpan, mm.Trace.SpanID)
			}
		}
	case *ControlRequest:
		if m.CallProcessID != nil {
			addRef(slA, b.CreateByteVector(m.CallProcessID))
		}
		if m.Header != nil {
			addRef(slB, b.CreateByteVector(m.Header))
		}
		if m.Payload != nil {
			addRef(slC, b.CreateByteVector(m.Payload))
		}
		id, rf, ack, tr := m.RequestID, m.RANFunctionID, m.AckRequested, m.Trace
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(id))
			b.AddUint32(slRANFunc, uint32(rf))
			b.AddBool(slD, ack)
			if tr.Valid() {
				b.AddUint64(slTraceID, tr.TraceID)
				b.AddUint64(slTraceSpan, tr.SpanID)
			}
		}
	case *ControlAck:
		if m.CallProcessID != nil {
			addRef(slA, b.CreateByteVector(m.CallProcessID))
		}
		if m.Outcome != nil {
			addRef(slB, b.CreateByteVector(m.Outcome))
		}
		id, rf := m.RequestID, m.RANFunctionID
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(id))
			b.AddUint32(slRANFunc, uint32(rf))
		}
	case *ControlFailure:
		if m.CallProcessID != nil {
			addRef(slA, b.CreateByteVector(m.CallProcessID))
		}
		if m.Outcome != nil {
			addRef(slB, b.CreateByteVector(m.Outcome))
		}
		id, rf, cause := m.RequestID, m.RANFunctionID, m.Cause
		scalars = func(b *flat.Builder) {
			b.AddUint32(slReqID, packReqID(id))
			b.AddUint32(slRANFunc, uint32(rf))
			b.AddUint32(slCause, packCause(cause))
		}
	default:
		return fmt.Errorf("%w: %T", ErrUnknownType, pdu)
	}

	b.StartTable(numSlots)
	b.AddUint8(slType, uint8(pdu.MsgType()))
	for i := 0; i < nref; i++ {
		b.AddRef(refs[i].slot, refs[i].pos)
	}
	if scalars != nil {
		scalars(b)
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
	c.env = flatEnvelope{tab: tab, typ: MessageType(t)}
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
	tab flat.Table
	typ MessageType
	pdu PDU // cached full decode
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

func (e *flatEnvelope) Trace() trace.Context {
	return trace.Context{TraceID: e.tab.Uint64(slTraceID), SpanID: e.tab.Uint64(slTraceSpan)}
}

func (e *flatEnvelope) PDU() (PDU, error) {
	if e.pdu != nil {
		return e.pdu, nil
	}
	pdu, err := flatDecodeBody(e.tab, e.typ)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadMessage, e.typ, err)
	}
	e.pdu = pdu
	return pdu, nil
}

func flatDecodeBody(tab flat.Table, t MessageType) (PDU, error) {
	cp := cloneOctets
	switch t {
	case TypeSetupRequest:
		return &SetupRequest{
			TransactionID: tab.Uint8(slTransaction),
			NodeID:        flatGetNodeID(tab.SubTable(slA)),
			RANFunctions:  flatGetRANFunctions(tab, slB),
			Components:    flatGetComponents(tab, slC),
		}, nil
	case TypeSetupResponse:
		v := tab.Uint64(slA)
		return &SetupResponse{
			TransactionID: tab.Uint8(slTransaction),
			RICID:         GlobalRICID{PLMN: unpackPLMN(uint32(v >> 32)), RICID: uint32(v)},
			Accepted:      flatGetU16s(tab, slB),
			Rejected:      flatGetRejected(tab, slC),
		}, nil
	case TypeSetupFailure:
		return &SetupFailure{
			TransactionID: tab.Uint8(slTransaction),
			Cause:         unpackCause(tab.Uint32(slCause)),
			TimeToWaitMS:  tab.Uint32(slA),
		}, nil
	case TypeResetRequest:
		return &ResetRequest{
			TransactionID: tab.Uint8(slTransaction),
			Cause:         unpackCause(tab.Uint32(slCause)),
		}, nil
	case TypeResetResponse:
		return &ResetResponse{TransactionID: tab.Uint8(slTransaction)}, nil
	case TypeErrorIndication:
		return &ErrorIndication{
			TransactionID: tab.Uint8(slTransaction),
			HasRequestID:  tab.Has(slReqID),
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			Cause:         unpackCause(tab.Uint32(slCause)),
		}, nil
	case TypeServiceUpdate:
		return &ServiceUpdate{
			TransactionID: tab.Uint8(slTransaction),
			Added:         flatGetRANFunctions(tab, slA),
			Modified:      flatGetRANFunctions(tab, slB),
			Deleted:       flatGetU16s(tab, slC),
		}, nil
	case TypeServiceUpdateAck:
		return &ServiceUpdateAck{
			TransactionID: tab.Uint8(slTransaction),
			Accepted:      flatGetU16s(tab, slA),
			Rejected:      flatGetRejected(tab, slB),
		}, nil
	case TypeServiceUpdateFailure:
		return &ServiceUpdateFailure{
			TransactionID: tab.Uint8(slTransaction),
			Cause:         unpackCause(tab.Uint32(slCause)),
			TimeToWaitMS:  tab.Uint32(slA),
		}, nil
	case TypeServiceQuery:
		return &ServiceQuery{
			TransactionID: tab.Uint8(slTransaction),
			Accepted:      flatGetU16s(tab, slA),
		}, nil
	case TypeNodeConfigUpdate:
		return &NodeConfigUpdate{
			TransactionID: tab.Uint8(slTransaction),
			Components:    flatGetComponents(tab, slA),
		}, nil
	case TypeNodeConfigUpdateAck:
		m := &NodeConfigUpdateAck{TransactionID: tab.Uint8(slTransaction)}
		n := tab.VectorLen(slA)
		if n > 0 {
			m.Accepted = make([]string, n)
			for i := 0; i < n; i++ {
				m.Accepted[i] = string(tab.BytesVectorAt(slA, i))
			}
		}
		return m, nil
	case TypeNodeConfigUpdateFailure:
		return &NodeConfigUpdateFailure{
			TransactionID: tab.Uint8(slTransaction),
			Cause:         unpackCause(tab.Uint32(slCause)),
			TimeToWaitMS:  tab.Uint32(slA),
		}, nil
	case TypeConnectionUpdate:
		return &ConnectionUpdate{
			TransactionID: tab.Uint8(slTransaction),
			Add:           flatGetConnItems(tab, slA),
			Remove:        flatGetConnItems(tab, slB),
			Modify:        flatGetConnItems(tab, slC),
		}, nil
	case TypeConnectionUpdateAck:
		m := &ConnectionUpdateAck{
			TransactionID: tab.Uint8(slTransaction),
			Setup:         flatGetConnItems(tab, slA),
		}
		n := tab.VectorLen(slB)
		if n > 0 {
			m.Failed = make([]ConnectionFailedItem, n)
			for i := 0; i < n; i++ {
				ft := tab.RefVectorAt(slB, i)
				m.Failed[i] = ConnectionFailedItem{
					Item:  ConnectionItem{TNLAddress: ft.String(0), Usage: ft.Uint8(1)},
					Cause: unpackCause(ft.Uint32(2)),
				}
			}
		}
		return m, nil
	case TypeConnectionUpdateFailure:
		return &ConnectionUpdateFailure{
			TransactionID: tab.Uint8(slTransaction),
			Cause:         unpackCause(tab.Uint32(slCause)),
			TimeToWaitMS:  tab.Uint32(slA),
		}, nil
	case TypeSubscriptionRequest:
		m := &SubscriptionRequest{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			EventTrigger:  cp(tab.Bytes(slA)),
			Trace:         flatGetTrace(tab),
		}
		n := tab.VectorLen(slB)
		if n > 0 {
			m.Actions = make([]Action, n)
			for i := 0; i < n; i++ {
				at := tab.RefVectorAt(slB, i)
				m.Actions[i] = Action{
					ID:         at.Uint8(0),
					Type:       ActionType(at.Uint8(1)),
					Definition: cp(at.Bytes(2)),
				}
			}
		}
		return m, nil
	case TypeSubscriptionResponse:
		m := &SubscriptionResponse{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			Admitted:      cp(tab.Bytes(slA)),
		}
		n := tab.VectorLen(slB)
		if n > 0 {
			m.NotAdmitted = make([]ActionNotAdmitted, n)
			for i := 0; i < n; i++ {
				at := tab.RefVectorAt(slB, i)
				m.NotAdmitted[i] = ActionNotAdmitted{ID: at.Uint8(0), Cause: unpackCause(at.Uint32(1))}
			}
		}
		return m, nil
	case TypeSubscriptionFailure:
		return &SubscriptionFailure{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			Cause:         unpackCause(tab.Uint32(slCause)),
		}, nil
	case TypeSubscriptionDeleteRequest:
		return &SubscriptionDeleteRequest{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
		}, nil
	case TypeSubscriptionDeleteResponse:
		return &SubscriptionDeleteResponse{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
		}, nil
	case TypeSubscriptionDeleteFailure:
		return &SubscriptionDeleteFailure{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			Cause:         unpackCause(tab.Uint32(slCause)),
		}, nil
	case TypeIndication:
		v := tab.Uint64(slA)
		return &Indication{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			ActionID:      uint8(v >> 40),
			Class:         IndicationClass(uint8(v >> 32)),
			SN:            uint32(v),
			Header:        cp(tab.Bytes(slB)),
			Payload:       cp(tab.Bytes(slC)),
			CallProcessID: cp(tab.Bytes(slD)),
			Trace:         flatGetTrace(tab),
		}, nil
	case TypeControlRequest:
		return &ControlRequest{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			CallProcessID: cp(tab.Bytes(slA)),
			Header:        cp(tab.Bytes(slB)),
			Payload:       cp(tab.Bytes(slC)),
			AckRequested:  tab.Bool(slD),
			Trace:         flatGetTrace(tab),
		}, nil
	case TypeControlAck:
		return &ControlAck{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			CallProcessID: cp(tab.Bytes(slA)),
			Outcome:       cp(tab.Bytes(slB)),
		}, nil
	case TypeControlFailure:
		return &ControlFailure{
			RequestID:     unpackReqID(tab.Uint32(slReqID)),
			RANFunctionID: uint16(tab.Uint32(slRANFunc)),
			CallProcessID: cp(tab.Bytes(slA)),
			Cause:         unpackCause(tab.Uint32(slCause)),
			Outcome:       cp(tab.Bytes(slB)),
		}, nil
	default:
		return nil, ErrUnknownType
	}
}

// --- shared helpers ---

// flatGetTrace reads the trace-context slots; absent slots read as zero,
// which is exactly the invalid Context.
func flatGetTrace(tab flat.Table) trace.Context {
	return trace.Context{TraceID: tab.Uint64(slTraceID), SpanID: tab.Uint64(slTraceSpan)}
}

func packPLMN(p PLMN) uint32   { return uint32(p.MCC)<<10 | uint32(p.MNC) }
func unpackPLMN(v uint32) PLMN { return PLMN{MCC: uint16(v >> 10), MNC: uint16(v & 0x3FF)} }

func flatPutNodeID(b *flat.Builder, n GlobalE2NodeID) uint32 {
	b.StartTable(3)
	b.AddUint32(0, packPLMN(n.PLMN))
	b.AddUint8(1, uint8(n.Type))
	b.AddUint64(2, n.NodeID)
	return b.EndTable()
}

func flatGetNodeID(t flat.Table) GlobalE2NodeID {
	return GlobalE2NodeID{
		PLMN:   unpackPLMN(t.Uint32(0)),
		Type:   NodeType(t.Uint8(1)),
		NodeID: t.Uint64(2),
	}
}

func flatPutRANFunctions(b *flat.Builder, fns []RANFunctionItem) uint32 {
	refs := make([]uint32, len(fns))
	for i, f := range fns {
		oid := b.CreateString(f.OID)
		var def uint32
		hasDef := f.Definition != nil
		if hasDef {
			def = b.CreateByteVector(f.Definition)
		}
		b.StartTable(4)
		b.AddUint32(0, uint32(f.ID))
		b.AddUint32(1, uint32(f.Revision))
		b.AddRef(2, oid)
		if hasDef {
			b.AddRef(3, def)
		}
		refs[i] = b.EndTable()
	}
	return b.CreateRefVector(refs)
}

func flatGetRANFunctions(tab flat.Table, slot int) []RANFunctionItem {
	n := tab.VectorLen(slot)
	if n == 0 {
		return nil
	}
	out := make([]RANFunctionItem, n)
	for i := 0; i < n; i++ {
		ft := tab.RefVectorAt(slot, i)
		out[i] = RANFunctionItem{
			ID:       uint16(ft.Uint32(0)),
			Revision: uint16(ft.Uint32(1)),
			OID:      ft.String(2),
		}
		if d := ft.Bytes(3); len(d) > 0 {
			out[i].Definition = append([]byte(nil), d...)
		}
	}
	return out
}

func flatPutComponents(b *flat.Builder, cs []E2NodeComponentConfig) uint32 {
	refs := make([]uint32, len(cs))
	for i, c := range cs {
		id := b.CreateString(c.ComponentID)
		var req, resp uint32
		hasReq, hasResp := c.Request != nil, c.Response != nil
		if hasReq {
			req = b.CreateByteVector(c.Request)
		}
		if hasResp {
			resp = b.CreateByteVector(c.Response)
		}
		b.StartTable(4)
		b.AddUint8(0, c.InterfaceType)
		b.AddRef(1, id)
		if hasReq {
			b.AddRef(2, req)
		}
		if hasResp {
			b.AddRef(3, resp)
		}
		refs[i] = b.EndTable()
	}
	return b.CreateRefVector(refs)
}

func flatGetComponents(tab flat.Table, slot int) []E2NodeComponentConfig {
	n := tab.VectorLen(slot)
	if n == 0 {
		return nil
	}
	out := make([]E2NodeComponentConfig, n)
	for i := 0; i < n; i++ {
		ft := tab.RefVectorAt(slot, i)
		out[i] = E2NodeComponentConfig{
			InterfaceType: ft.Uint8(0),
			ComponentID:   ft.String(1),
		}
		if d := ft.Bytes(2); len(d) > 0 {
			out[i].Request = append([]byte(nil), d...)
		}
		if d := ft.Bytes(3); len(d) > 0 {
			out[i].Response = append([]byte(nil), d...)
		}
	}
	return out
}

func flatPutConnItems(b *flat.Builder, items []ConnectionItem) uint32 {
	refs := make([]uint32, len(items))
	for i, it := range items {
		addr := b.CreateString(it.TNLAddress)
		b.StartTable(2)
		b.AddRef(0, addr)
		b.AddUint8(1, it.Usage)
		refs[i] = b.EndTable()
	}
	return b.CreateRefVector(refs)
}

func flatGetConnItems(tab flat.Table, slot int) []ConnectionItem {
	n := tab.VectorLen(slot)
	if n == 0 {
		return nil
	}
	out := make([]ConnectionItem, n)
	for i := 0; i < n; i++ {
		ft := tab.RefVectorAt(slot, i)
		out[i] = ConnectionItem{TNLAddress: ft.String(0), Usage: ft.Uint8(1)}
	}
	return out
}

func flatPutRejected(b *flat.Builder, rj []RejectedFunction) uint32 {
	refs := make([]uint32, len(rj))
	for i, r := range rj {
		b.StartTable(2)
		b.AddUint32(0, uint32(r.ID))
		b.AddUint32(1, packCause(r.Cause))
		refs[i] = b.EndTable()
	}
	return b.CreateRefVector(refs)
}

func flatGetRejected(tab flat.Table, slot int) []RejectedFunction {
	n := tab.VectorLen(slot)
	if n == 0 {
		return nil
	}
	out := make([]RejectedFunction, n)
	for i := 0; i < n; i++ {
		ft := tab.RefVectorAt(slot, i)
		out[i] = RejectedFunction{ID: uint16(ft.Uint32(0)), Cause: unpackCause(ft.Uint32(1))}
	}
	return out
}

func flatPutU16s(b *flat.Builder, vals []uint16) uint32 {
	u := make([]uint64, len(vals))
	for i, v := range vals {
		u[i] = uint64(v)
	}
	return b.CreateUint64Vector(u)
}

func flatGetU16s(tab flat.Table, slot int) []uint16 {
	n := tab.VectorLen(slot)
	if n == 0 {
		return nil
	}
	out := make([]uint16, n)
	for i := 0; i < n; i++ {
		out[i] = uint16(tab.Uint64VectorAt(slot, i))
	}
	return out
}
