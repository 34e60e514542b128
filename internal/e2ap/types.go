// Package e2ap models the O-RAN E2 Application Protocol as an
// encoding-independent intermediate representation.
//
// This is FlexRIC's §4.3 abstraction: every E2AP procedure is a plain Go
// struct ("without loss of information and independent of any particular
// encoding/decoding algorithm"), and pluggable codecs translate the IR to
// and from wire formats. Two codecs ship with the SDK — an ASN.1-PER-style
// codec (compact, explicit decode pass) and a FlatBuffers-style codec
// (larger, zero-copy lazy reads) — matching the paper's implementation,
// which covers the E2AP message set in both schemes.
//
// All 26 E2AP messages of O-RAN.WG3.E2AP-v01.01 are represented: the
// global procedures (setup, reset, error indication, service update/query,
// node configuration update, connection update) and the functional
// procedures (subscription, subscription delete, indication, control).
package e2ap

import (
	"fmt"

	"flexric/internal/encoding/walk"
	"flexric/internal/trace"
)

// MessageType enumerates the E2AP procedures.
type MessageType uint8

// The 26 E2AP message types.
const (
	TypeSetupRequest MessageType = iota
	TypeSetupResponse
	TypeSetupFailure
	TypeResetRequest
	TypeResetResponse
	TypeErrorIndication
	TypeServiceUpdate
	TypeServiceUpdateAck
	TypeServiceUpdateFailure
	TypeServiceQuery
	TypeNodeConfigUpdate
	TypeNodeConfigUpdateAck
	TypeNodeConfigUpdateFailure
	TypeConnectionUpdate
	TypeConnectionUpdateAck
	TypeConnectionUpdateFailure
	TypeSubscriptionRequest
	TypeSubscriptionResponse
	TypeSubscriptionFailure
	TypeSubscriptionDeleteRequest
	TypeSubscriptionDeleteResponse
	TypeSubscriptionDeleteFailure
	TypeIndication
	TypeControlRequest
	TypeControlAck
	TypeControlFailure

	numMessageTypes // sentinel
)

// NumMessageTypes is the number of E2AP procedures (26).
const NumMessageTypes = int(numMessageTypes)

var typeNames = [...]string{
	"SetupRequest", "SetupResponse", "SetupFailure",
	"ResetRequest", "ResetResponse", "ErrorIndication",
	"ServiceUpdate", "ServiceUpdateAck", "ServiceUpdateFailure", "ServiceQuery",
	"NodeConfigUpdate", "NodeConfigUpdateAck", "NodeConfigUpdateFailure",
	"ConnectionUpdate", "ConnectionUpdateAck", "ConnectionUpdateFailure",
	"SubscriptionRequest", "SubscriptionResponse", "SubscriptionFailure",
	"SubscriptionDeleteRequest", "SubscriptionDeleteResponse", "SubscriptionDeleteFailure",
	"Indication", "ControlRequest", "ControlAck", "ControlFailure",
}

func (t MessageType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("MessageType(%d)", uint8(t))
}

// PDU is implemented by every E2AP message struct.
type PDU interface {
	// MsgType identifies the E2AP procedure.
	MsgType() MessageType
}

// RequestID identifies a RIC request: the requestor (iApp/xApp) and a
// per-requestor instance, as in E2AP's RICrequestID.
type RequestID struct {
	Requestor uint16
	Instance  uint16
}

func (r RequestID) String() string { return fmt.Sprintf("req(%d/%d)", r.Requestor, r.Instance) }

// PLMN is a public land mobile network identity (MCC + MNC).
type PLMN struct {
	MCC uint16 // 3 digits
	MNC uint16 // 2-3 digits
}

func (p PLMN) String() string { return fmt.Sprintf("%03d.%02d", p.MCC, p.MNC) }

// NodeType classifies an E2 node, including disaggregated parts.
type NodeType uint8

// E2 node types.
const (
	NodeENB  NodeType = iota // 4G monolithic
	NodeGNB                  // 5G monolithic
	NodeCU                   // centralized unit
	NodeDU                   // distributed unit
	NodeCUUP                 // CU user plane
	NodeCUCP                 // CU control plane
)

var nodeTypeNames = [...]string{"eNB", "gNB", "CU", "DU", "CU-UP", "CU-CP"}

func (n NodeType) String() string {
	if int(n) < len(nodeTypeNames) {
		return nodeTypeNames[n]
	}
	return fmt.Sprintf("NodeType(%d)", uint8(n))
}

// GlobalE2NodeID globally identifies an E2 node. For disaggregated
// deployments, nodes that belong to the same logical base station share
// NodeID and differ in Type; the server's RAN management merges them.
type GlobalE2NodeID struct {
	PLMN   PLMN
	Type   NodeType
	NodeID uint64
}

func (g GlobalE2NodeID) String() string {
	return fmt.Sprintf("%s/%s/%d", g.PLMN, g.Type, g.NodeID)
}

// GlobalRICID identifies the RIC in setup responses.
type GlobalRICID struct {
	PLMN  PLMN
	RICID uint32 // 20 bits
}

// CauseType groups causes per E2AP's Cause CHOICE.
type CauseType uint8

// Cause groups.
const (
	CauseRICRequest CauseType = iota
	CauseRICService
	CauseTransport
	CauseProtocol
	CauseMisc
)

// Cause carries a failure reason.
type Cause struct {
	Type  CauseType
	Value uint8
}

func (c Cause) String() string { return fmt.Sprintf("cause(%d:%d)", c.Type, c.Value) }

// ActionType distinguishes the E2SM action classes (Appendix A.3).
type ActionType uint8

// RIC action types.
const (
	ActionReport ActionType = iota
	ActionInsert
	ActionPolicy
)

// Action is a requested RIC action within a subscription.
type Action struct {
	ID         uint8
	Type       ActionType
	Definition []byte // SM-encoded action definition
}

func (x *Action) walk(f fields) {
	f.U8(0, &x.ID)
	f.enum(1, (*uint8)(&x.Type), 3)
	f.Octets(2, &x.Definition)
}

// ActionNotAdmitted reports a rejected action.
type ActionNotAdmitted struct {
	ID    uint8
	Cause Cause
}

func (x *ActionNotAdmitted) walk(f fields) {
	f.U8(0, &x.ID)
	f.cause(1, &x.Cause)
}

// RANFunctionItem describes a RAN function exposed by an E2 node.
type RANFunctionItem struct {
	ID         uint16
	Revision   uint16
	OID        string // service model object identifier
	Definition []byte // SM-encoded RAN function definition
}

func (x *RANFunctionItem) walk(f fields) {
	f.U16(0, &x.ID)
	f.U16(1, &x.Revision)
	f.Str(2, &x.OID)
	f.Octets(3, &x.Definition)
}

// RejectedFunction reports a RAN function the RIC refused.
type RejectedFunction struct {
	ID    uint16
	Cause Cause
}

func (x *RejectedFunction) walk(f fields) {
	f.U16(0, &x.ID)
	f.cause(1, &x.Cause)
}

// E2NodeComponentConfig carries per-component configuration for
// disaggregated nodes.
type E2NodeComponentConfig struct {
	InterfaceType uint8 // NG, Xn, E1, F1, W1, S1, X2
	ComponentID   string
	Request       []byte
	Response      []byte
}

func (x *E2NodeComponentConfig) walk(f fields) {
	f.U8(0, &x.InterfaceType)
	f.Str(1, &x.ComponentID)
	f.Octets(2, &x.Request)
	f.Octets(3, &x.Response)
}

// ConnectionItem describes a TNL association in connection updates.
type ConnectionItem struct {
	TNLAddress string // transport address, e.g. "host:port"
	Usage      uint8  // RIC service, support, both
}

func (x *ConnectionItem) walk(f fields) {
	f.Str(0, &x.TNLAddress)
	f.U8(1, &x.Usage)
}

// ConnectionFailedItem reports a TNL association that failed to set up.
type ConnectionFailedItem struct {
	Item  ConnectionItem
	Cause Cause
}

func (x *ConnectionFailedItem) walk(f fields) {
	x.Item.walk(f)
	f.cause(2, &x.Cause)
}

// IndicationClass distinguishes report and insert indications.
type IndicationClass uint8

// Indication classes.
const (
	IndicationReport IndicationClass = iota
	IndicationInsert
)

// --- Global procedures ---

// SetupRequest initiates the E2 association from node to RIC.
type SetupRequest struct {
	TransactionID uint8
	NodeID        GlobalE2NodeID
	RANFunctions  []RANFunctionItem
	Components    []E2NodeComponentConfig
}

func (*SetupRequest) MsgType() MessageType { return TypeSetupRequest }
func (m *SetupRequest) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	f.nodeID(slA, &m.NodeID)
	walk.ListOf(f, slB, &m.RANFunctions, (*RANFunctionItem).walk)
	walk.ListOf(f, slC, &m.Components, (*E2NodeComponentConfig).walk)
}

// SetupResponse accepts the E2 association.
type SetupResponse struct {
	TransactionID uint8
	RICID         GlobalRICID
	Accepted      []uint16 // accepted RAN function IDs
	Rejected      []RejectedFunction
}

func (*SetupResponse) MsgType() MessageType { return TypeSetupResponse }
func (m *SetupResponse) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	f.ricID(slA, &m.RICID)
	f.u16s(slB, &m.Accepted)
	walk.ListOf(f, slC, &m.Rejected, (*RejectedFunction).walk)
}

// SetupFailure rejects the E2 association.
type SetupFailure struct {
	TransactionID uint8
	Cause         Cause
	TimeToWaitMS  uint32
}

func (*SetupFailure) MsgType() MessageType { return TypeSetupFailure }
func (m *SetupFailure) walk(f fields)      { walkFailure(f, &m.TransactionID, &m.Cause, &m.TimeToWaitMS) }

// ResetRequest asks the peer to drop all E2 state.
type ResetRequest struct {
	TransactionID uint8
	Cause         Cause
}

func (*ResetRequest) MsgType() MessageType { return TypeResetRequest }
func (m *ResetRequest) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	f.cause(slCause, &m.Cause)
}

// ResetResponse confirms a reset.
type ResetResponse struct {
	TransactionID uint8
}

func (*ResetResponse) MsgType() MessageType { return TypeResetResponse }
func (m *ResetResponse) walk(f fields)      { f.U8(slTransaction, &m.TransactionID) }

// ErrorIndication reports a protocol error outside a procedure. All
// fields are optional; zero values mean "not present" except HasRequestID.
type ErrorIndication struct {
	TransactionID uint8
	HasRequestID  bool
	RequestID     RequestID
	RANFunctionID uint16
	Cause         Cause
}

func (*ErrorIndication) MsgType() MessageType { return TypeErrorIndication }
func (m *ErrorIndication) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	if f.present(slReqID, &m.HasRequestID) {
		f.reqID(&m.RequestID)
	}
	f.U16(slRANFunc, &m.RANFunctionID)
	f.cause(slCause, &m.Cause)
}

// ServiceUpdate announces added/modified/deleted RAN functions.
type ServiceUpdate struct {
	TransactionID uint8
	Added         []RANFunctionItem
	Modified      []RANFunctionItem
	Deleted       []uint16
}

func (*ServiceUpdate) MsgType() MessageType { return TypeServiceUpdate }
func (m *ServiceUpdate) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	walk.ListOf(f, slA, &m.Added, (*RANFunctionItem).walk)
	walk.ListOf(f, slB, &m.Modified, (*RANFunctionItem).walk)
	f.u16s(slC, &m.Deleted)
}

// ServiceUpdateAck acknowledges a service update.
type ServiceUpdateAck struct {
	TransactionID uint8
	Accepted      []uint16
	Rejected      []RejectedFunction
}

func (*ServiceUpdateAck) MsgType() MessageType { return TypeServiceUpdateAck }
func (m *ServiceUpdateAck) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	f.u16s(slA, &m.Accepted)
	walk.ListOf(f, slB, &m.Rejected, (*RejectedFunction).walk)
}

// ServiceUpdateFailure rejects a service update.
type ServiceUpdateFailure struct {
	TransactionID uint8
	Cause         Cause
	TimeToWaitMS  uint32
}

func (*ServiceUpdateFailure) MsgType() MessageType { return TypeServiceUpdateFailure }
func (m *ServiceUpdateFailure) walk(f fields) {
	walkFailure(f, &m.TransactionID, &m.Cause, &m.TimeToWaitMS)
}

// ServiceQuery asks the node to report its RAN functions.
type ServiceQuery struct {
	TransactionID uint8
	Accepted      []uint16 // functions the RIC currently accepts
}

func (*ServiceQuery) MsgType() MessageType { return TypeServiceQuery }
func (m *ServiceQuery) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	f.u16s(slA, &m.Accepted)
}

// NodeConfigUpdate announces component configuration changes.
type NodeConfigUpdate struct {
	TransactionID uint8
	Components    []E2NodeComponentConfig
}

func (*NodeConfigUpdate) MsgType() MessageType { return TypeNodeConfigUpdate }
func (m *NodeConfigUpdate) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	walk.ListOf(f, slA, &m.Components, (*E2NodeComponentConfig).walk)
}

// NodeConfigUpdateAck acknowledges a configuration update.
type NodeConfigUpdateAck struct {
	TransactionID uint8
	Accepted      []string // component IDs
}

func (*NodeConfigUpdateAck) MsgType() MessageType { return TypeNodeConfigUpdateAck }
func (m *NodeConfigUpdateAck) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	f.strs(slA, &m.Accepted)
}

// NodeConfigUpdateFailure rejects a configuration update.
type NodeConfigUpdateFailure struct {
	TransactionID uint8
	Cause         Cause
	TimeToWaitMS  uint32
}

func (*NodeConfigUpdateFailure) MsgType() MessageType { return TypeNodeConfigUpdateFailure }
func (m *NodeConfigUpdateFailure) walk(f fields) {
	walkFailure(f, &m.TransactionID, &m.Cause, &m.TimeToWaitMS)
}

// ConnectionUpdate manages additional TNL associations (multi-controller).
type ConnectionUpdate struct {
	TransactionID uint8
	Add           []ConnectionItem
	Remove        []ConnectionItem
	Modify        []ConnectionItem
}

func (*ConnectionUpdate) MsgType() MessageType { return TypeConnectionUpdate }
func (m *ConnectionUpdate) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	walk.ListOf(f, slA, &m.Add, (*ConnectionItem).walk)
	walk.ListOf(f, slB, &m.Remove, (*ConnectionItem).walk)
	walk.ListOf(f, slC, &m.Modify, (*ConnectionItem).walk)
}

// ConnectionUpdateAck acknowledges a connection update.
type ConnectionUpdateAck struct {
	TransactionID uint8
	Setup         []ConnectionItem
	Failed        []ConnectionFailedItem
}

func (*ConnectionUpdateAck) MsgType() MessageType { return TypeConnectionUpdateAck }
func (m *ConnectionUpdateAck) walk(f fields) {
	f.U8(slTransaction, &m.TransactionID)
	walk.ListOf(f, slA, &m.Setup, (*ConnectionItem).walk)
	walk.ListOf(f, slB, &m.Failed, (*ConnectionFailedItem).walk)
}

// ConnectionUpdateFailure rejects a connection update.
type ConnectionUpdateFailure struct {
	TransactionID uint8
	Cause         Cause
	TimeToWaitMS  uint32
}

func (*ConnectionUpdateFailure) MsgType() MessageType { return TypeConnectionUpdateFailure }
func (m *ConnectionUpdateFailure) walk(f fields) {
	walkFailure(f, &m.TransactionID, &m.Cause, &m.TimeToWaitMS)
}

// --- Functional procedures ---

// SubscriptionRequest subscribes to event triggers in a RAN function.
type SubscriptionRequest struct {
	RequestID     RequestID
	RANFunctionID uint16
	EventTrigger  []byte // SM-encoded event trigger definition
	Actions       []Action
	// Trace is the distributed-tracing context stamped at creation and
	// carried across the wire by both codecs; zero when not sampled.
	Trace trace.Context
}

func (*SubscriptionRequest) MsgType() MessageType { return TypeSubscriptionRequest }
func (m *SubscriptionRequest) walk(f fields) {
	walkFunc(f, &m.RequestID, &m.RANFunctionID)
	f.Octets(slA, &m.EventTrigger)
	walk.ListOf(f, slB, &m.Actions, (*Action).walk)
	f.traceCtx(&m.Trace)
}

// SubscriptionResponse admits (some) requested actions.
type SubscriptionResponse struct {
	RequestID     RequestID
	RANFunctionID uint16
	Admitted      []uint8
	NotAdmitted   []ActionNotAdmitted
}

func (*SubscriptionResponse) MsgType() MessageType { return TypeSubscriptionResponse }
func (m *SubscriptionResponse) walk(f fields) {
	walkFunc(f, &m.RequestID, &m.RANFunctionID)
	f.Octets(slA, &m.Admitted)
	walk.ListOf(f, slB, &m.NotAdmitted, (*ActionNotAdmitted).walk)
}

// SubscriptionFailure rejects a subscription entirely.
type SubscriptionFailure struct {
	RequestID     RequestID
	RANFunctionID uint16
	Cause         Cause
}

func (*SubscriptionFailure) MsgType() MessageType { return TypeSubscriptionFailure }
func (m *SubscriptionFailure) walk(f fields) {
	walkFunc(f, &m.RequestID, &m.RANFunctionID)
	f.cause(slCause, &m.Cause)
}

// SubscriptionDeleteRequest removes a subscription.
type SubscriptionDeleteRequest struct {
	RequestID     RequestID
	RANFunctionID uint16
}

func (*SubscriptionDeleteRequest) MsgType() MessageType { return TypeSubscriptionDeleteRequest }
func (m *SubscriptionDeleteRequest) walk(f fields)      { walkFunc(f, &m.RequestID, &m.RANFunctionID) }

// SubscriptionDeleteResponse confirms a subscription removal.
type SubscriptionDeleteResponse struct {
	RequestID     RequestID
	RANFunctionID uint16
}

func (*SubscriptionDeleteResponse) MsgType() MessageType { return TypeSubscriptionDeleteResponse }
func (m *SubscriptionDeleteResponse) walk(f fields)      { walkFunc(f, &m.RequestID, &m.RANFunctionID) }

// SubscriptionDeleteFailure rejects a subscription removal.
type SubscriptionDeleteFailure struct {
	RequestID     RequestID
	RANFunctionID uint16
	Cause         Cause
}

func (*SubscriptionDeleteFailure) MsgType() MessageType { return TypeSubscriptionDeleteFailure }
func (m *SubscriptionDeleteFailure) walk(f fields) {
	walkFunc(f, &m.RequestID, &m.RANFunctionID)
	f.cause(slCause, &m.Cause)
}

// Indication carries SM report/insert data from node to RIC. Header and
// Payload are SM-encoded: E2 enforces the double encoding the paper
// evaluates in §5.2 (inner E2SM pass, outer E2AP pass).
type Indication struct {
	RequestID     RequestID
	RANFunctionID uint16
	ActionID      uint8
	SN            uint32 // sequence number
	Class         IndicationClass
	Header        []byte // SM-encoded indication header
	Payload       []byte // SM-encoded indication message
	CallProcessID []byte // optional
	// Trace is the distributed-tracing context stamped at creation and
	// carried across the wire by both codecs; zero when not sampled.
	Trace trace.Context
}

func (*Indication) MsgType() MessageType { return TypeIndication }

// ControlRequest triggers an SM-specific action in a RAN function.
type ControlRequest struct {
	RequestID     RequestID
	RANFunctionID uint16
	CallProcessID []byte // optional
	Header        []byte // SM-encoded control header
	Payload       []byte // SM-encoded control message
	AckRequested  bool
	// Trace is the distributed-tracing context stamped at creation and
	// carried across the wire by both codecs; zero when not sampled.
	Trace trace.Context
}

func (*ControlRequest) MsgType() MessageType { return TypeControlRequest }
func (m *ControlRequest) walk(f fields) {
	walkFunc(f, &m.RequestID, &m.RANFunctionID)
	f.optOctets(slA, &m.CallProcessID)
	f.Octets(slB, &m.Header)
	f.Octets(slC, &m.Payload)
	f.Bool(slD, &m.AckRequested)
	f.traceCtx(&m.Trace)
}

// ControlAck confirms a control request.
type ControlAck struct {
	RequestID     RequestID
	RANFunctionID uint16
	CallProcessID []byte
	Outcome       []byte // SM-encoded control outcome
}

func (*ControlAck) MsgType() MessageType { return TypeControlAck }
func (m *ControlAck) walk(f fields) {
	walkFunc(f, &m.RequestID, &m.RANFunctionID)
	f.optOctets(slA, &m.CallProcessID)
	f.Octets(slB, &m.Outcome)
}

// ControlFailure rejects a control request.
type ControlFailure struct {
	RequestID     RequestID
	RANFunctionID uint16
	CallProcessID []byte
	Cause         Cause
	Outcome       []byte
}

func (*ControlFailure) MsgType() MessageType { return TypeControlFailure }
func (m *ControlFailure) walk(f fields) {
	walkFunc(f, &m.RequestID, &m.RANFunctionID)
	f.optOctets(slA, &m.CallProcessID)
	f.cause(slCause, &m.Cause)
	f.Octets(slB, &m.Outcome)
}
