package e2ap

import "flexric/internal/trace"

// Every message type but Indication describes itself once, as a walk
// over its fields in wire order: the walk methods beside each type in
// types.go. Indication keeps hand-written arms: it crosses the wire
// every TTI, the PER envelope reads it without copying it, and the flat
// one packs its scalars into one slot. Four
// walkers interpret a walk: the PER writer and reader in per.go and the
// flat writer and reader in flatcodec.go. A walker moves each field out
// of the message (writers) or into it (readers) through the same
// pointer, so one walk is the encoder and the decoder of its type in
// both schemes.
//
// slot names a field's place in the flat table it belongs to: the shared
// root layout (slReqID, slCause, slA, …) for message fields, its index
// inside a list item. A flat list item is as wide as the highest slot
// its walk names. PER ignores slots: it is a bit stream in walk order.
type fields interface {
	u8(slot int, v *uint8)
	u16(slot int, v *uint16)
	u32(slot int, v *uint32)
	// enum is a u8 with card values; PER writes it in the fewest bits.
	enum(slot int, v *uint8, card int)
	// bool is one PER bit; flat stores a u8, set even when false.
	bool(slot int, v *bool)
	str(slot int, v *string)
	// octets is an octet string; empty decodes as nil. The flat writer
	// leaves a nil one out of the table.
	octets(slot int, v *[]byte)
	// optOctets is an optional octet string, present iff non-nil: PER
	// spends a bit on its presence.
	optOctets(slot int, v *[]byte)
	// present walks whether an optional field follows: one PER bit, a
	// set or absent flat slot. The caller walks the field only if true.
	present(slot int, has *bool) bool
	cause(slot int, v *Cause)
	reqID(v *RequestID)
	nodeID(slot int, v *GlobalE2NodeID)
	ricID(slot int, v *GlobalRICID)
	traceCtx(v *trace.Context)
	u16s(slot int, v *[]uint16)
	strs(slot int, v *[]string)
	// list opens a list of n tables in slot and returns its length: n
	// when writing, the count on the wire when reading. item opens the
	// i-th table; end closes whatever list or item was opened last.
	list(slot, n int) int
	item(i int)
	end()
}

// message is a PDU that describes itself as a field walk.
type message interface {
	PDU
	walk(f fields)
}

// listOf walks the list of tables in slot, each element by its own walk.
func listOf[T any, P interface {
	*T
	walk(fields)
}](f fields, slot int, s *[]T) {
	if n := f.list(slot, len(*s)); n != len(*s) {
		*s = make([]T, n)
	}
	for i := range *s {
		f.item(i)
		P(&(*s)[i]).walk(f)
		f.end()
	}
	f.end()
}

func newOf[T any, P interface {
	*T
	message
}]() message {
	return P(new(T))
}

// newMessage holds a constructor per walked type; nil for Indication,
// the one hand-written type.
var newMessage = [NumMessageTypes]func() message{
	TypeSetupRequest:               newOf[SetupRequest],
	TypeSetupResponse:              newOf[SetupResponse],
	TypeSetupFailure:               newOf[SetupFailure],
	TypeResetRequest:               newOf[ResetRequest],
	TypeResetResponse:              newOf[ResetResponse],
	TypeErrorIndication:            newOf[ErrorIndication],
	TypeServiceUpdate:              newOf[ServiceUpdate],
	TypeServiceUpdateAck:           newOf[ServiceUpdateAck],
	TypeServiceUpdateFailure:       newOf[ServiceUpdateFailure],
	TypeServiceQuery:               newOf[ServiceQuery],
	TypeNodeConfigUpdate:           newOf[NodeConfigUpdate],
	TypeNodeConfigUpdateAck:        newOf[NodeConfigUpdateAck],
	TypeNodeConfigUpdateFailure:    newOf[NodeConfigUpdateFailure],
	TypeConnectionUpdate:           newOf[ConnectionUpdate],
	TypeConnectionUpdateAck:        newOf[ConnectionUpdateAck],
	TypeConnectionUpdateFailure:    newOf[ConnectionUpdateFailure],
	TypeSubscriptionRequest:        newOf[SubscriptionRequest],
	TypeSubscriptionResponse:       newOf[SubscriptionResponse],
	TypeSubscriptionFailure:        newOf[SubscriptionFailure],
	TypeSubscriptionDeleteRequest:  newOf[SubscriptionDeleteRequest],
	TypeSubscriptionDeleteResponse: newOf[SubscriptionDeleteResponse],
	TypeSubscriptionDeleteFailure:  newOf[SubscriptionDeleteFailure],
	TypeControlRequest:             newOf[ControlRequest],
	TypeControlAck:                 newOf[ControlAck],
	TypeControlFailure:             newOf[ControlFailure],
}

// walkFailure is the layout shared by the four *Failure messages of the
// global procedures.
func walkFailure(f fields, tid *uint8, c *Cause, ttw *uint32) {
	f.u8(slTransaction, tid)
	f.cause(slCause, c)
	f.u32(slA, ttw)
}

// walkFunc walks the routing fields every functional procedure opens with.
func walkFunc(f fields, id *RequestID, fn *uint16) {
	f.reqID(id)
	f.u16(slRANFunc, fn)
}
