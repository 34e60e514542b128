package e2ap

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// samplePDUs returns one fully-populated instance of every E2AP message.
func samplePDUs() []PDU {
	cause := Cause{Type: CauseRICService, Value: 7}
	plmn := PLMN{MCC: 208, MNC: 95}
	fns := []RANFunctionItem{
		{ID: 2, Revision: 1, OID: "1.3.6.1.4.1.1.2.2", Definition: []byte{1, 2, 3}},
		{ID: 142, Revision: 3, OID: "1.3.6.1.4.1.1.2.142", Definition: []byte{9}},
	}
	comps := []E2NodeComponentConfig{
		{InterfaceType: 4, ComponentID: "f1-du-0", Request: []byte{0xA}, Response: []byte{0xB, 0xC}},
	}
	conns := []ConnectionItem{{TNLAddress: "10.0.0.1:36421", Usage: 2}}
	return []PDU{
		&SetupRequest{TransactionID: 1, NodeID: GlobalE2NodeID{PLMN: plmn, Type: NodeDU, NodeID: 3584}, RANFunctions: fns, Components: comps},
		&SetupResponse{TransactionID: 1, RICID: GlobalRICID{PLMN: plmn, RICID: 0xABCDE}, Accepted: []uint16{2, 142}, Rejected: []RejectedFunction{{ID: 9, Cause: cause}}},
		&SetupFailure{TransactionID: 1, Cause: cause, TimeToWaitMS: 5000},
		&ResetRequest{TransactionID: 2, Cause: cause},
		&ResetResponse{TransactionID: 2},
		&ErrorIndication{TransactionID: 3, HasRequestID: true, RequestID: RequestID{10, 20}, RANFunctionID: 2, Cause: cause},
		&ServiceUpdate{TransactionID: 4, Added: fns[:1], Modified: fns[1:], Deleted: []uint16{77}},
		&ServiceUpdateAck{TransactionID: 4, Accepted: []uint16{2}, Rejected: []RejectedFunction{{ID: 3, Cause: cause}}},
		&ServiceUpdateFailure{TransactionID: 4, Cause: cause, TimeToWaitMS: 100},
		&ServiceQuery{TransactionID: 5, Accepted: []uint16{2, 142}},
		&NodeConfigUpdate{TransactionID: 6, Components: comps},
		&NodeConfigUpdateAck{TransactionID: 6, Accepted: []string{"f1-du-0"}},
		&NodeConfigUpdateFailure{TransactionID: 6, Cause: cause, TimeToWaitMS: 10},
		&ConnectionUpdate{TransactionID: 7, Add: conns, Remove: nil, Modify: conns},
		&ConnectionUpdateAck{TransactionID: 7, Setup: conns, Failed: []ConnectionFailedItem{{Item: conns[0], Cause: cause}}},
		&ConnectionUpdateFailure{TransactionID: 7, Cause: cause, TimeToWaitMS: 42},
		&SubscriptionRequest{RequestID: RequestID{1, 2}, RANFunctionID: 2, EventTrigger: []byte{1, 0, 0}, Actions: []Action{{ID: 1, Type: ActionReport, Definition: []byte{5, 5}}, {ID: 2, Type: ActionPolicy}}},
		&SubscriptionResponse{RequestID: RequestID{1, 2}, RANFunctionID: 2, Admitted: []uint8{1}, NotAdmitted: []ActionNotAdmitted{{ID: 2, Cause: cause}}},
		&SubscriptionFailure{RequestID: RequestID{1, 2}, RANFunctionID: 2, Cause: cause},
		&SubscriptionDeleteRequest{RequestID: RequestID{1, 2}, RANFunctionID: 2},
		&SubscriptionDeleteResponse{RequestID: RequestID{1, 2}, RANFunctionID: 2},
		&SubscriptionDeleteFailure{RequestID: RequestID{1, 2}, RANFunctionID: 2, Cause: cause},
		&Indication{RequestID: RequestID{1, 2}, RANFunctionID: 2, ActionID: 1, SN: 99, Class: IndicationReport, Header: []byte{0x1, 2}, Payload: bytes.Repeat([]byte{0x42}, 100), CallProcessID: []byte{7}},
		&ControlRequest{RequestID: RequestID{3, 4}, RANFunctionID: 142, CallProcessID: []byte{8}, Header: []byte{1}, Payload: []byte{2, 3}, AckRequested: true},
		&ControlAck{RequestID: RequestID{3, 4}, RANFunctionID: 142, CallProcessID: []byte{8}, Outcome: []byte{0}},
		&ControlFailure{RequestID: RequestID{3, 4}, RANFunctionID: 142, Cause: cause, Outcome: []byte{1}},
	}
}

func codecs(t testing.TB) []Codec {
	t.Helper()
	return []Codec{NewPERCodec(), NewFlatCodec()}
}

func TestAllMessagesCovered(t *testing.T) {
	pdus := samplePDUs()
	if len(pdus) != NumMessageTypes {
		t.Fatalf("sample set has %d messages, want %d", len(pdus), NumMessageTypes)
	}
	seen := make(map[MessageType]bool)
	for _, p := range pdus {
		if seen[p.MsgType()] {
			t.Fatalf("duplicate sample for %s", p.MsgType())
		}
		seen[p.MsgType()] = true
	}
}

func TestRoundTripAllMessagesBothCodecs(t *testing.T) {
	for _, c := range codecs(t) {
		for _, pdu := range samplePDUs() {
			wire, err := c.Encode(pdu)
			if err != nil {
				t.Fatalf("%s encode %s: %v", c.Name(), pdu.MsgType(), err)
			}
			// Copy: codecs may reuse their scratch buffer.
			wire = append([]byte(nil), wire...)
			got, err := c.Decode(wire)
			if err != nil {
				t.Fatalf("%s decode %s: %v", c.Name(), pdu.MsgType(), err)
			}
			if !reflect.DeepEqual(got, pdu) {
				t.Errorf("%s round-trip %s:\n got %+v\nwant %+v", c.Name(), pdu.MsgType(), got, pdu)
			}
		}
	}
	// PER ≡ FB ≡ IR over random messages of every type: both codecs
	// decode each to the message itself, empty octet strings and lists
	// as nil.
	for _, pdu := range sweepPDUs(20, 1) {
		want := canonical(pdu)
		for _, c := range codecs(t) {
			got, err := c.Decode(encodeCopy(t, c, pdu))
			if err != nil {
				t.Fatalf("%s decode %s: %v", c.Name(), pdu.MsgType(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round-trip %s:\n got %+v\nwant %+v", c.Name(), pdu.MsgType(), got, want)
			}
		}
	}
}

func TestCrossCodecIndependence(t *testing.T) {
	// A message encoded with one codec must not decode as valid with
	// crossed expectations silently producing the same struct. (They may
	// error or produce different content; they must never be trusted.)
	per, fb := NewPERCodec(), NewFlatCodec()
	pdu := &SubscriptionRequest{RequestID: RequestID{1, 2}, RANFunctionID: 3, EventTrigger: []byte{1}}
	pw, err := per.Encode(pdu)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fb.Decode(append([]byte(nil), pw...)); err == nil {
		if reflect.DeepEqual(got, pdu) {
			t.Fatal("flat codec decoded PER bytes as the identical message")
		}
	}
	// Random messages of every type, crossed both ways.
	for _, pdu := range sweepPDUs(8, 2) {
		for _, cs := range [][2]Codec{{per, fb}, {fb, per}} {
			wire := encodeCopy(t, cs[0], pdu)
			if got, err := cs[1].Decode(wire); err == nil && reflect.DeepEqual(got, canonical(pdu)) {
				t.Fatalf("%s decoded %s bytes of %s as the identical message", cs[1].Name(), cs[0].Name(), pdu.MsgType())
			}
		}
	}
}

func TestEnvelopeRouting(t *testing.T) {
	for _, c := range codecs(t) {
		ind := &Indication{
			RequestID:     RequestID{Requestor: 42, Instance: 7},
			RANFunctionID: 142,
			ActionID:      3,
			SN:            1000,
			Header:        []byte{1, 2},
			Payload:       []byte{3, 4, 5},
		}
		wire, err := c.Encode(ind)
		if err != nil {
			t.Fatal(err)
		}
		wire = append([]byte(nil), wire...)
		env, err := c.Envelope(wire)
		if err != nil {
			t.Fatalf("%s envelope: %v", c.Name(), err)
		}
		if env.Type() != TypeIndication {
			t.Fatalf("%s type: %s", c.Name(), env.Type())
		}
		if env.RequestID() != ind.RequestID {
			t.Fatalf("%s reqid: %v", c.Name(), env.RequestID())
		}
		if env.RANFunctionID() != 142 {
			t.Fatalf("%s ranfunc: %d", c.Name(), env.RANFunctionID())
		}
		if !bytes.Equal(env.IndicationPayload(), ind.Payload) {
			t.Fatalf("%s payload: %v", c.Name(), env.IndicationPayload())
		}
		if !bytes.Equal(env.IndicationHeader(), ind.Header) {
			t.Fatalf("%s header: %v", c.Name(), env.IndicationHeader())
		}
		pdu, err := env.PDU()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pdu, ind) {
			t.Fatalf("%s PDU: %+v", c.Name(), pdu)
		}
	}
}

func TestEnvelopeNonFunctional(t *testing.T) {
	for _, c := range codecs(t) {
		wire, err := c.Encode(&ResetResponse{TransactionID: 9})
		if err != nil {
			t.Fatal(err)
		}
		env, err := c.Envelope(append([]byte(nil), wire...))
		if err != nil {
			t.Fatal(err)
		}
		if env.RequestID() != (RequestID{}) || env.RANFunctionID() != 0 {
			t.Fatalf("%s: global procedure must report zero routing fields", c.Name())
		}
		if env.IndicationPayload() != nil {
			t.Fatalf("%s: non-indication must have nil payload", c.Name())
		}
	}
}

func TestFlatEnvelopeZeroCopyPayload(t *testing.T) {
	c := NewFlatCodec()
	ind := &Indication{RequestID: RequestID{1, 1}, RANFunctionID: 1, Payload: []byte{10, 20, 30}}
	wire, err := c.Encode(ind)
	if err != nil {
		t.Fatal(err)
	}
	wire = append([]byte(nil), wire...)
	env, _ := c.Envelope(wire)
	p := env.IndicationPayload()
	// Mutating the wire must be visible through the payload view: proof
	// that no copy happened.
	p0 := &p[0]
	env2, _ := c.Envelope(wire)
	if &env2.IndicationPayload()[0] != p0 {
		t.Fatal("flat envelope payload must alias the wire buffer")
	}
}

func TestWireSizeComparison(t *testing.T) {
	// The paper: FB messages carry 30-40 B extra vs ASN.1 (Fig. 7b).
	per, fb := NewPERCodec(), NewFlatCodec()
	ind := &Indication{RequestID: RequestID{1, 2}, RANFunctionID: 3, Payload: bytes.Repeat([]byte{1}, 100)}
	pw, err := per.Encode(ind)
	if err != nil {
		t.Fatal(err)
	}
	perLen := len(pw)
	fw, err := fb.Encode(ind)
	if err != nil {
		t.Fatal(err)
	}
	fbLen := len(fw)
	if fbLen <= perLen {
		t.Fatalf("flat (%d B) should be larger than PER (%d B)", fbLen, perLen)
	}
	over := fbLen - perLen
	if over < 10 || over > 80 {
		t.Fatalf("flat overhead %d B, expected tens of bytes", over)
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, c := range codecs(t) {
		if _, err := c.Decode(nil); err == nil {
			t.Fatalf("%s: empty input must fail", c.Name())
		}
		if _, err := c.Envelope([]byte{0xFF}); err == nil {
			t.Fatalf("%s: garbage envelope must fail", c.Name())
		}
	}
	// PER: valid type byte, truncated body.
	if _, err := NewPERCodec().Decode([]byte{byte(TypeSubscriptionRequest)}); err == nil {
		t.Fatal("PER truncated body must fail")
	}
	// Unknown message type.
	if _, err := NewPERCodec().Decode([]byte{200, 0, 0}); err == nil {
		t.Fatal("PER unknown type must fail")
	}
}

func TestUnknownPDUType(t *testing.T) {
	for _, c := range codecs(t) {
		if _, err := c.Encode(fakePDU{}); err == nil {
			t.Fatalf("%s: encoding unknown PDU type must fail", c.Name())
		}
	}
}

// fakePDU claims a valid message type but is not a known struct; codecs
// must reject it rather than mis-serialize.
type fakePDU struct{}

func (fakePDU) MsgType() MessageType { return TypeIndication }

func randomIndication(rng *rand.Rand) *Indication {
	n := rng.Intn(200)
	payload := make([]byte, n)
	rng.Read(payload)
	var pl []byte
	if n > 0 {
		pl = payload
	}
	hdr := make([]byte, 1+rng.Intn(16))
	rng.Read(hdr)
	ind := &Indication{
		RequestID:     RequestID{Requestor: uint16(rng.Uint32()), Instance: uint16(rng.Uint32())},
		RANFunctionID: uint16(rng.Uint32()),
		ActionID:      uint8(rng.Uint32()),
		SN:            rng.Uint32(),
		Class:         IndicationClass(rng.Intn(2)),
		Header:        hdr,
		Payload:       pl,
	}
	if rng.Intn(2) == 0 {
		cp := make([]byte, 1+rng.Intn(8))
		rng.Read(cp)
		ind.CallProcessID = cp
	}
	return ind
}

func TestQuickIndicationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range codecs(t) {
		for i := 0; i < 500; i++ {
			ind := randomIndication(rng)
			wire, err := c.Encode(ind)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			got, err := c.Decode(append([]byte(nil), wire...))
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if !reflect.DeepEqual(got, ind) {
				t.Fatalf("%s iter %d:\n got %+v\nwant %+v", c.Name(), i, got, ind)
			}
		}
	}
}

func TestQuickDecodersNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		for _, c := range []Codec{NewPERCodec(), NewFlatCodec()} {
			if pdu, err := c.Decode(b); err == nil && pdu == nil {
				return false
			}
			if env, err := c.Envelope(b); err == nil {
				_ = env.RequestID()
				_ = env.RANFunctionID()
				_ = env.IndicationPayload()
				_, _ = env.PDU()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageTypeStrings(t *testing.T) {
	if TypeIndication.String() != "Indication" {
		t.Fatal(TypeIndication.String())
	}
	if MessageType(250).String() == "" {
		t.Fatal("out-of-range type must still format")
	}
	if NodeDU.String() != "DU" || NodeType(99).String() == "" {
		t.Fatal("node type strings")
	}
}

func BenchmarkEncodeIndicationPER(b *testing.B) {
	benchEncodeIndication(b, NewPERCodec())
}

func BenchmarkEncodeIndicationFlat(b *testing.B) {
	benchEncodeIndication(b, NewFlatCodec())
}

func benchEncodeIndication(b *testing.B, c Codec) {
	ind := &Indication{
		RequestID:     RequestID{1, 2},
		RANFunctionID: 142,
		SN:            1,
		Payload:       bytes.Repeat([]byte{0x2A}, 1500),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(ind); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvelopePER(b *testing.B) { benchEnvelope(b, NewPERCodec()) }

func BenchmarkEnvelopeFlat(b *testing.B) { benchEnvelope(b, NewFlatCodec()) }

// benchEnvelope measures the dispatch-path cost difference that drives
// Fig. 8b: PER must decode, flat reads slots in place.
func benchEnvelope(b *testing.B, c Codec) {
	ind := &Indication{
		RequestID:     RequestID{1, 2},
		RANFunctionID: 142,
		SN:            1,
		Payload:       bytes.Repeat([]byte{0x2A}, 1500),
	}
	wire, err := c.Encode(ind)
	if err != nil {
		b.Fatal(err)
	}
	wire = append([]byte(nil), wire...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := c.Envelope(wire)
		if err != nil {
			b.Fatal(err)
		}
		if env.RANFunctionID() != 142 {
			b.Fatal("bad routing")
		}
	}
}
