package e2ap

import (
	"flexric/internal/encoding/walk"
	"flexric/internal/trace"
)

// Every message type but Indication describes itself once, as a field
// walk (package walk): the walk methods beside each type in types.go.
// Indication keeps hand-written arms: it crosses the wire every TTI, the
// PER envelope reads it without copying it, and the flat one packs its
// scalars into one slot. E2AP's four walkers, in per.go and
// flatcodec.go, embed package walk's and add E2AP's own field kinds.
//
// slot names a field's place in the flat table it belongs to: the shared
// root layout (slReqID, slCause, slA, …) for message fields, its index
// inside a list item.
type fields interface {
	walk.Fields
	// enum is a u8 with card values; PER writes it in the fewest bits.
	enum(slot int, v *uint8, card int)
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
}

// message is a PDU that describes itself as a field walk.
type message interface {
	PDU
	walk(f fields)
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
	f.U8(slTransaction, tid)
	f.cause(slCause, c)
	f.U32(slA, ttw)
}

// walkFunc walks the routing fields every functional procedure opens with.
func walkFunc(f fields, id *RequestID, fn *uint16) {
	f.reqID(id)
	f.U16(slRANFunc, fn)
}
