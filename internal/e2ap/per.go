package e2ap

import (
	"fmt"

	"flexric/internal/encoding/asn1per"
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
	r  asn1per.Reader
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
	case *SetupRequest:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutNodeID(w, m.NodeID)
		w.WriteLength(len(m.RANFunctions))
		for i := range m.RANFunctions {
			perPutRANFunction(w, &m.RANFunctions[i])
		}
		w.WriteLength(len(m.Components))
		for i := range m.Components {
			perPutComponent(w, &m.Components[i])
		}
	case *SetupResponse:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutPLMN(w, m.RICID.PLMN)
		w.WriteBits(uint64(m.RICID.RICID), 20)
		perPutU16s(w, m.Accepted)
		w.WriteLength(len(m.Rejected))
		for _, rj := range m.Rejected {
			w.WriteBits(uint64(rj.ID), 16)
			perPutCause(w, rj.Cause)
		}
	case *SetupFailure:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutCause(w, m.Cause)
		w.WriteBits(uint64(m.TimeToWaitMS), 32)
	case *ResetRequest:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutCause(w, m.Cause)
	case *ResetResponse:
		w.WriteBits(uint64(m.TransactionID), 8)
	case *ErrorIndication:
		w.WriteBits(uint64(m.TransactionID), 8)
		w.WriteBool(m.HasRequestID)
		if m.HasRequestID {
			perPutReqID(w, m.RequestID)
		}
		w.WriteBits(uint64(m.RANFunctionID), 16)
		perPutCause(w, m.Cause)
	case *ServiceUpdate:
		w.WriteBits(uint64(m.TransactionID), 8)
		w.WriteLength(len(m.Added))
		for i := range m.Added {
			perPutRANFunction(w, &m.Added[i])
		}
		w.WriteLength(len(m.Modified))
		for i := range m.Modified {
			perPutRANFunction(w, &m.Modified[i])
		}
		perPutU16s(w, m.Deleted)
	case *ServiceUpdateAck:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutU16s(w, m.Accepted)
		w.WriteLength(len(m.Rejected))
		for _, rj := range m.Rejected {
			w.WriteBits(uint64(rj.ID), 16)
			perPutCause(w, rj.Cause)
		}
	case *ServiceUpdateFailure:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutCause(w, m.Cause)
		w.WriteBits(uint64(m.TimeToWaitMS), 32)
	case *ServiceQuery:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutU16s(w, m.Accepted)
	case *NodeConfigUpdate:
		w.WriteBits(uint64(m.TransactionID), 8)
		w.WriteLength(len(m.Components))
		for i := range m.Components {
			perPutComponent(w, &m.Components[i])
		}
	case *NodeConfigUpdateAck:
		w.WriteBits(uint64(m.TransactionID), 8)
		w.WriteLength(len(m.Accepted))
		for _, id := range m.Accepted {
			w.WriteString(id)
		}
	case *NodeConfigUpdateFailure:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutCause(w, m.Cause)
		w.WriteBits(uint64(m.TimeToWaitMS), 32)
	case *ConnectionUpdate:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutConnItems(w, m.Add)
		perPutConnItems(w, m.Remove)
		perPutConnItems(w, m.Modify)
	case *ConnectionUpdateAck:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutConnItems(w, m.Setup)
		w.WriteLength(len(m.Failed))
		for _, f := range m.Failed {
			w.WriteString(f.Item.TNLAddress)
			w.WriteBits(uint64(f.Item.Usage), 8)
			perPutCause(w, f.Cause)
		}
	case *ConnectionUpdateFailure:
		w.WriteBits(uint64(m.TransactionID), 8)
		perPutCause(w, m.Cause)
		w.WriteBits(uint64(m.TimeToWaitMS), 32)
	case *SubscriptionRequest:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
		w.WriteOctets(m.EventTrigger)
		w.WriteLength(len(m.Actions))
		for _, a := range m.Actions {
			w.WriteBits(uint64(a.ID), 8)
			if err := w.WriteEnum(int(a.Type), 3); err != nil {
				return err
			}
			w.WriteOctets(a.Definition)
		}
		perPutTrace(w, m.Trace)
	case *SubscriptionResponse:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
		w.WriteOctets(m.Admitted)
		w.WriteLength(len(m.NotAdmitted))
		for _, na := range m.NotAdmitted {
			w.WriteBits(uint64(na.ID), 8)
			perPutCause(w, na.Cause)
		}
	case *SubscriptionFailure:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
		perPutCause(w, m.Cause)
	case *SubscriptionDeleteRequest:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
	case *SubscriptionDeleteResponse:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
	case *SubscriptionDeleteFailure:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
		perPutCause(w, m.Cause)
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
	case *ControlRequest:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
		w.WriteBool(m.CallProcessID != nil)
		if m.CallProcessID != nil {
			w.WriteOctets(m.CallProcessID)
		}
		w.WriteOctets(m.Header)
		w.WriteOctets(m.Payload)
		w.WriteBool(m.AckRequested)
		perPutTrace(w, m.Trace)
	case *ControlAck:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
		w.WriteBool(m.CallProcessID != nil)
		if m.CallProcessID != nil {
			w.WriteOctets(m.CallProcessID)
		}
		w.WriteOctets(m.Outcome)
	case *ControlFailure:
		perPutReqID(w, m.RequestID)
		w.WriteBits(uint64(m.RANFunctionID), 16)
		w.WriteBool(m.CallProcessID != nil)
		if m.CallProcessID != nil {
			w.WriteOctets(m.CallProcessID)
		}
		perPutCause(w, m.Cause)
		w.WriteOctets(m.Outcome)
	default:
		return fmt.Errorf("%w: %T", ErrUnknownType, pdu)
	}
	return nil
}

// readType positions the codec's reader after the leading message type.
func (c *PERCodec) readType(wire []byte) (MessageType, error) {
	c.r.Reset(wire)
	tv, err := c.r.ReadBits(8)
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
	pdu, err := perDecodeBody(&c.r, t)
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
		pdu, err = &c.ind, perGetIndication(&c.r, &c.ind, (*asn1per.Reader).ReadOctetsZeroCopy)
	} else {
		pdu, err = perDecodeBody(&c.r, t)
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

func perDecodeBody(r *asn1per.Reader, t MessageType) (PDU, error) {
	switch t {
	case TypeSetupRequest:
		m := &SetupRequest{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		var err error
		if m.NodeID, err = perGetNodeID(r); err != nil {
			return nil, err
		}
		n, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.RANFunctions = make([]RANFunctionItem, n)
			for i := range m.RANFunctions {
				if err := perGetRANFunction(r, &m.RANFunctions[i]); err != nil {
					return nil, err
				}
			}
		}
		if n, err = r.ReadCount(); err != nil {
			return nil, err
		}
		if n > 0 {
			m.Components = make([]E2NodeComponentConfig, n)
			for i := range m.Components {
				if err := perGetComponent(r, &m.Components[i]); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	case TypeSetupResponse:
		m := &SetupResponse{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		var err error
		if m.RICID.PLMN, err = perGetPLMN(r); err != nil {
			return nil, err
		}
		v, err := r.ReadBits(20)
		if err != nil {
			return nil, err
		}
		m.RICID.RICID = uint32(v)
		if m.Accepted, err = perGetU16s(r); err != nil {
			return nil, err
		}
		n, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.Rejected = make([]RejectedFunction, n)
			for i := range m.Rejected {
				id, err := r.ReadBits(16)
				if err != nil {
					return nil, err
				}
				m.Rejected[i].ID = uint16(id)
				if m.Rejected[i].Cause, err = perGetCause(r); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	case TypeSetupFailure:
		m := &SetupFailure{}
		if err := perGetFailure(r, &m.TransactionID, &m.Cause, &m.TimeToWaitMS); err != nil {
			return nil, err
		}
		return m, nil
	case TypeResetRequest:
		m := &ResetRequest{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		var err error
		if m.Cause, err = perGetCause(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeResetResponse:
		m := &ResetResponse{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		return m, nil
	case TypeErrorIndication:
		m := &ErrorIndication{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		has, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		m.HasRequestID = has
		if has {
			if m.RequestID, err = perGetReqID(r); err != nil {
				return nil, err
			}
		}
		rf, err := r.ReadBits(16)
		if err != nil {
			return nil, err
		}
		m.RANFunctionID = uint16(rf)
		if m.Cause, err = perGetCause(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeServiceUpdate:
		m := &ServiceUpdate{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		var err error
		if m.Added, err = perGetRANFunctions(r); err != nil {
			return nil, err
		}
		if m.Modified, err = perGetRANFunctions(r); err != nil {
			return nil, err
		}
		if m.Deleted, err = perGetU16s(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeServiceUpdateAck:
		m := &ServiceUpdateAck{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		var err error
		if m.Accepted, err = perGetU16s(r); err != nil {
			return nil, err
		}
		n, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.Rejected = make([]RejectedFunction, n)
			for i := range m.Rejected {
				id, err := r.ReadBits(16)
				if err != nil {
					return nil, err
				}
				m.Rejected[i].ID = uint16(id)
				if m.Rejected[i].Cause, err = perGetCause(r); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	case TypeServiceUpdateFailure:
		m := &ServiceUpdateFailure{}
		if err := perGetFailure(r, &m.TransactionID, &m.Cause, &m.TimeToWaitMS); err != nil {
			return nil, err
		}
		return m, nil
	case TypeServiceQuery:
		m := &ServiceQuery{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		var err error
		if m.Accepted, err = perGetU16s(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeNodeConfigUpdate:
		m := &NodeConfigUpdate{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		n, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.Components = make([]E2NodeComponentConfig, n)
			for i := range m.Components {
				if err := perGetComponent(r, &m.Components[i]); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	case TypeNodeConfigUpdateAck:
		m := &NodeConfigUpdateAck{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		n, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.Accepted = make([]string, n)
			for i := range m.Accepted {
				if m.Accepted[i], err = r.ReadString(); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	case TypeNodeConfigUpdateFailure:
		m := &NodeConfigUpdateFailure{}
		if err := perGetFailure(r, &m.TransactionID, &m.Cause, &m.TimeToWaitMS); err != nil {
			return nil, err
		}
		return m, nil
	case TypeConnectionUpdate:
		m := &ConnectionUpdate{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		var err error
		if m.Add, err = perGetConnItems(r); err != nil {
			return nil, err
		}
		if m.Remove, err = perGetConnItems(r); err != nil {
			return nil, err
		}
		if m.Modify, err = perGetConnItems(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeConnectionUpdateAck:
		m := &ConnectionUpdateAck{}
		if err := perGetU8(r, &m.TransactionID); err != nil {
			return nil, err
		}
		var err error
		if m.Setup, err = perGetConnItems(r); err != nil {
			return nil, err
		}
		n, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.Failed = make([]ConnectionFailedItem, n)
			for i := range m.Failed {
				if m.Failed[i].Item.TNLAddress, err = r.ReadString(); err != nil {
					return nil, err
				}
				u, err := r.ReadBits(8)
				if err != nil {
					return nil, err
				}
				m.Failed[i].Item.Usage = uint8(u)
				if m.Failed[i].Cause, err = perGetCause(r); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	case TypeConnectionUpdateFailure:
		m := &ConnectionUpdateFailure{}
		if err := perGetFailure(r, &m.TransactionID, &m.Cause, &m.TimeToWaitMS); err != nil {
			return nil, err
		}
		return m, nil
	case TypeSubscriptionRequest:
		m := &SubscriptionRequest{}
		var err error
		if m.RequestID, err = perGetReqID(r); err != nil {
			return nil, err
		}
		rf, err := r.ReadBits(16)
		if err != nil {
			return nil, err
		}
		m.RANFunctionID = uint16(rf)
		if m.EventTrigger, err = r.ReadOctets(); err != nil {
			return nil, err
		}
		n, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.Actions = make([]Action, n)
			for i := range m.Actions {
				id, err := r.ReadBits(8)
				if err != nil {
					return nil, err
				}
				m.Actions[i].ID = uint8(id)
				at, err := r.ReadEnum(3)
				if err != nil {
					return nil, err
				}
				m.Actions[i].Type = ActionType(at)
				if m.Actions[i].Definition, err = r.ReadOctets(); err != nil {
					return nil, err
				}
			}
		}
		if m.Trace, err = perGetTrace(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeSubscriptionResponse:
		m := &SubscriptionResponse{}
		var err error
		if m.RequestID, err = perGetReqID(r); err != nil {
			return nil, err
		}
		rf, err := r.ReadBits(16)
		if err != nil {
			return nil, err
		}
		m.RANFunctionID = uint16(rf)
		adm, err := r.ReadOctets()
		if err != nil {
			return nil, err
		}
		if len(adm) > 0 {
			m.Admitted = adm
		}
		n, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.NotAdmitted = make([]ActionNotAdmitted, n)
			for i := range m.NotAdmitted {
				id, err := r.ReadBits(8)
				if err != nil {
					return nil, err
				}
				m.NotAdmitted[i].ID = uint8(id)
				if m.NotAdmitted[i].Cause, err = perGetCause(r); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	case TypeSubscriptionFailure:
		m := &SubscriptionFailure{}
		var err error
		if m.RequestID, m.RANFunctionID, err = perGetFuncHdr(r); err != nil {
			return nil, err
		}
		if m.Cause, err = perGetCause(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeSubscriptionDeleteRequest:
		m := &SubscriptionDeleteRequest{}
		var err error
		if m.RequestID, m.RANFunctionID, err = perGetFuncHdr(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeSubscriptionDeleteResponse:
		m := &SubscriptionDeleteResponse{}
		var err error
		if m.RequestID, m.RANFunctionID, err = perGetFuncHdr(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeSubscriptionDeleteFailure:
		m := &SubscriptionDeleteFailure{}
		var err error
		if m.RequestID, m.RANFunctionID, err = perGetFuncHdr(r); err != nil {
			return nil, err
		}
		if m.Cause, err = perGetCause(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeIndication:
		m := &Indication{}
		if err := perGetIndication(r, m, (*asn1per.Reader).ReadOctets); err != nil {
			return nil, err
		}
		return m, nil
	case TypeControlRequest:
		m := &ControlRequest{}
		var err error
		if m.RequestID, m.RANFunctionID, err = perGetFuncHdr(r); err != nil {
			return nil, err
		}
		has, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if has {
			if m.CallProcessID, err = r.ReadOctets(); err != nil {
				return nil, err
			}
		}
		if m.Header, err = r.ReadOctets(); err != nil {
			return nil, err
		}
		if m.Payload, err = r.ReadOctets(); err != nil {
			return nil, err
		}
		if m.AckRequested, err = r.ReadBool(); err != nil {
			return nil, err
		}
		if m.Trace, err = perGetTrace(r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeControlAck:
		m := &ControlAck{}
		var err error
		if m.RequestID, m.RANFunctionID, err = perGetFuncHdr(r); err != nil {
			return nil, err
		}
		has, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if has {
			if m.CallProcessID, err = r.ReadOctets(); err != nil {
				return nil, err
			}
		}
		if m.Outcome, err = r.ReadOctets(); err != nil {
			return nil, err
		}
		return m, nil
	case TypeControlFailure:
		m := &ControlFailure{}
		var err error
		if m.RequestID, m.RANFunctionID, err = perGetFuncHdr(r); err != nil {
			return nil, err
		}
		has, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if has {
			if m.CallProcessID, err = r.ReadOctets(); err != nil {
				return nil, err
			}
		}
		if m.Cause, err = perGetCause(r); err != nil {
			return nil, err
		}
		if m.Outcome, err = r.ReadOctets(); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, ErrUnknownType
	}
}

// --- shared field helpers ---

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

func perPutCause(w *asn1per.Writer, c Cause) {
	_ = w.WriteEnum(int(c.Type), 5)
	w.WriteBits(uint64(c.Value), 8)
}

func perGetCause(r *asn1per.Reader) (Cause, error) {
	t, err := r.ReadEnum(5)
	if err != nil {
		return Cause{}, err
	}
	v, err := r.ReadBits(8)
	if err != nil {
		return Cause{}, err
	}
	return Cause{Type: CauseType(t), Value: uint8(v)}, nil
}

func perPutPLMN(w *asn1per.Writer, p PLMN) {
	_ = w.WriteConstrainedInt(int64(p.MCC), 0, 999)
	_ = w.WriteConstrainedInt(int64(p.MNC), 0, 999)
}

func perGetPLMN(r *asn1per.Reader) (PLMN, error) {
	mcc, err := r.ReadConstrainedInt(0, 999)
	if err != nil {
		return PLMN{}, err
	}
	mnc, err := r.ReadConstrainedInt(0, 999)
	if err != nil {
		return PLMN{}, err
	}
	return PLMN{MCC: uint16(mcc), MNC: uint16(mnc)}, nil
}

func perPutNodeID(w *asn1per.Writer, n GlobalE2NodeID) {
	perPutPLMN(w, n.PLMN)
	_ = w.WriteEnum(int(n.Type), 6)
	w.WriteUint(n.NodeID)
}

func perGetNodeID(r *asn1per.Reader) (GlobalE2NodeID, error) {
	p, err := perGetPLMN(r)
	if err != nil {
		return GlobalE2NodeID{}, err
	}
	t, err := r.ReadEnum(6)
	if err != nil {
		return GlobalE2NodeID{}, err
	}
	id, err := r.ReadUint()
	if err != nil {
		return GlobalE2NodeID{}, err
	}
	return GlobalE2NodeID{PLMN: p, Type: NodeType(t), NodeID: id}, nil
}

func perPutRANFunction(w *asn1per.Writer, f *RANFunctionItem) {
	w.WriteBits(uint64(f.ID), 16)
	w.WriteBits(uint64(f.Revision), 16)
	w.WriteString(f.OID)
	w.WriteOctets(f.Definition)
}

func perGetRANFunction(r *asn1per.Reader, f *RANFunctionItem) error {
	id, err := r.ReadBits(16)
	if err != nil {
		return err
	}
	f.ID = uint16(id)
	rev, err := r.ReadBits(16)
	if err != nil {
		return err
	}
	f.Revision = uint16(rev)
	if f.OID, err = r.ReadString(); err != nil {
		return err
	}
	f.Definition, err = r.ReadOctets()
	return err
}

func perGetRANFunctions(r *asn1per.Reader) ([]RANFunctionItem, error) {
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]RANFunctionItem, n)
	for i := range out {
		if err := perGetRANFunction(r, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func perPutComponent(w *asn1per.Writer, c *E2NodeComponentConfig) {
	w.WriteBits(uint64(c.InterfaceType), 8)
	w.WriteString(c.ComponentID)
	w.WriteOctets(c.Request)
	w.WriteOctets(c.Response)
}

func perGetComponent(r *asn1per.Reader, c *E2NodeComponentConfig) error {
	it, err := r.ReadBits(8)
	if err != nil {
		return err
	}
	c.InterfaceType = uint8(it)
	if c.ComponentID, err = r.ReadString(); err != nil {
		return err
	}
	if c.Request, err = r.ReadOctets(); err != nil {
		return err
	}
	c.Response, err = r.ReadOctets()
	return err
}

func perPutConnItems(w *asn1per.Writer, items []ConnectionItem) {
	w.WriteLength(len(items))
	for _, it := range items {
		w.WriteString(it.TNLAddress)
		w.WriteBits(uint64(it.Usage), 8)
	}
}

func perGetConnItems(r *asn1per.Reader) ([]ConnectionItem, error) {
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]ConnectionItem, n)
	for i := range out {
		if out[i].TNLAddress, err = r.ReadString(); err != nil {
			return nil, err
		}
		u, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		out[i].Usage = uint8(u)
	}
	return out, nil
}

func perPutU16s(w *asn1per.Writer, vals []uint16) {
	w.WriteLength(len(vals))
	for _, v := range vals {
		w.WriteBits(uint64(v), 16)
	}
}

func perGetU16s(r *asn1per.Reader) ([]uint16, error) {
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint16, n)
	for i := range out {
		v, err := r.ReadBits(16)
		if err != nil {
			return nil, err
		}
		out[i] = uint16(v)
	}
	return out, nil
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

func perGetTrace(r *asn1per.Reader) (trace.Context, error) {
	has, err := r.ReadBool()
	if err != nil || !has {
		return trace.Context{}, err
	}
	var tc trace.Context
	if tc.TraceID, err = r.ReadBits(64); err != nil {
		return trace.Context{}, err
	}
	if tc.SpanID, err = r.ReadBits(64); err != nil {
		return trace.Context{}, err
	}
	return tc, nil
}

func perGetFailure(r *asn1per.Reader, tid *uint8, cause *Cause, ttw *uint32) error {
	if err := perGetU8(r, tid); err != nil {
		return err
	}
	c, err := perGetCause(r)
	if err != nil {
		return err
	}
	*cause = c
	v, err := r.ReadBits(32)
	if err != nil {
		return err
	}
	*ttw = uint32(v)
	return nil
}
