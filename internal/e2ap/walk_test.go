package e2ap

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/flat"
)

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// failsClosed is the oracle of the decode sweeps and of FuzzE2APDecode.
// Whatever wire holds, Decode and Envelope must not panic, and they
// agree: both fail, with ErrBadMessage or (for a type out of range)
// ErrUnknownType, or both return the same message, which re-encodes to
// bytes that decode to it again. A decode allocates at most 64 bytes per
// input byte: no count read off the wire sizes a slice past what the
// input can hold. The slack absorbs the heap's per-span accounting.
func failsClosed(t testing.TB, c Codec, wire []byte) {
	t.Helper()
	var pdu PDU
	var err error
	c.Decode(wire) // warm up lazily created telemetry and codec scratch
	if n := allocatedBy(func() { pdu, err = c.Decode(wire) }); n > 64*uint64(len(wire))+64<<10 {
		t.Fatalf("%s: decoding %d bytes allocated %d bytes: %x", c.Name(), len(wire), n, wire)
	}
	env, envErr := c.Envelope(wire)
	if (err == nil) != (envErr == nil) {
		t.Fatalf("%s: Decode error %v but Envelope error %v: %x", c.Name(), err, envErr, wire)
	}
	if err != nil {
		if !errors.Is(err, ErrBadMessage) && !errors.Is(err, ErrUnknownType) {
			t.Fatalf("%s: %v, want ErrBadMessage or ErrUnknownType: %x", c.Name(), err, wire)
		}
		return
	}
	if viewed, err := env.PDU(); err != nil || !reflect.DeepEqual(viewed, pdu) {
		t.Fatalf("%s: Envelope.PDU %+v (%v) differs from Decode %+v: %x", c.Name(), viewed, err, pdu, wire)
	}
	again, err := c.Decode(encodeCopy(t, c, pdu))
	if err != nil || !reflect.DeepEqual(again, pdu) {
		t.Fatalf("%s: %s re-encoded decodes to %+v (%v), want %+v: %x", c.Name(), pdu.MsgType(), again, err, pdu, wire)
	}
}

// FuzzE2APDecode runs both codecs' Decode and Envelope on arbitrary
// bytes under the failsClosed oracle, seeded with every wire of the
// golden corpus.
func FuzzE2APDecode(f *testing.F) {
	for _, e := range readGolden(f) {
		f.Add(e.ASN)
		f.Add(e.FB)
	}
	f.Add(aliasedSetup(1000, 10000))
	f.Add(aliasedAck(1000, 10000))
	per, fb := NewPERCodec(), NewFlatCodec()
	f.Fuzz(func(t *testing.T, wire []byte) {
		failsClosed(t, per, wire)
		failsClosed(t, fb, wire)
	})
}

// ControlAck crosses the wire every control cycle and is walked: its
// encodes allocate nothing, and a decode allocates the message and its
// two octet strings, as does a PER envelope (a full decode); a flat
// envelope allocates nothing.
func TestControlAckWalkAllocs(t *testing.T) {
	ack := &ControlAck{RequestID: RequestID{3, 4}, RANFunctionID: 142, CallProcessID: []byte{8}, Outcome: []byte{0, 1}}
	for _, tc := range []struct {
		c                Codec
		decode, envelope float64
	}{{NewPERCodec(), 3, 3}, {NewFlatCodec(), 3, 0}} {
		c, wire := tc.c, encodeCopy(t, tc.c, ack)
		buf := make([]byte, 0, 256)
		got := [4]float64{
			testing.AllocsPerRun(100, func() { c.Encode(ack) }),
			testing.AllocsPerRun(100, func() { c.EncodeAppend(buf[:0], ack) }),
			testing.AllocsPerRun(100, func() { c.Decode(wire) }),
			testing.AllocsPerRun(100, func() { c.Envelope(wire) }),
		}
		if want := [4]float64{0, 0, tc.decode, tc.envelope}; got != want {
			t.Errorf("%s: encode, append, decode, envelope allocate %v per message, want %v", c.Name(), got, want)
		}
	}
}

// vectorCountAt returns the offset in a flat message of the element
// count of the vector in root-table slot.
func vectorCountAt(wire []byte, slot int) int {
	le := binary.LittleEndian
	root := le.Uint32(wire)
	vt := le.Uint32(wire[root:])
	off := le.Uint16(wire[int(vt)+2+2*slot:])
	return int(le.Uint32(wire[int(root)+int(off):]))
}

// A one-element flat vector whose count claims 2^20 elements must not
// make the decoder allocate them before it reads the first one.
func TestFlatHostileVectorCount(t *testing.T) {
	c := NewFlatCodec()
	for _, m := range []struct {
		pdu  PDU
		slot int
	}{
		{&ServiceQuery{Accepted: []uint16{7}}, slA},
		{&SetupRequest{RANFunctions: []RANFunctionItem{{ID: 1}}}, slB},
		{&NodeConfigUpdateAck{Accepted: []string{"cu"}}, slA},
	} {
		wire := encodeCopy(t, c, m.pdu)
		at := vectorCountAt(wire, m.slot)
		if n := binary.LittleEndian.Uint32(wire[at:]); n != 1 {
			t.Fatalf("%s: count at %d reads %d, want the one element encoded", m.pdu.MsgType(), at, n)
		}
		binary.LittleEndian.PutUint32(wire[at:], 1<<20)
		failsClosed(t, c, wire)
	}
}

// hostilePER is a PER message of size bytes: its type, what head writes,
// and a list count claiming one element per byte left. Every element
// takes at least a byte on the wire, so the input holds far fewer.
func hostilePER(size int, t MessageType, head func(w *asn1per.Writer)) []byte {
	var w asn1per.Writer
	w.WriteBits(uint64(t), 8)
	head(&w)
	w.Align()
	n := size - w.Len() - 2 // a two-byte count
	w.WriteLength(n)
	return append(w.Bytes(), make([]byte, n)...)
}

// perSetupHead writes a SetupRequest up to its RAN-function list: the
// transaction ID and a zero node ID.
func perSetupHead(w *asn1per.Writer) {
	w.WriteBits(0, 8)
	_ = w.WriteConstrainedInt(0, 0, 999) // MCC
	_ = w.WriteConstrainedInt(0, 0, 999) // MNC
	_ = w.WriteEnum(0, 6)                // node type
	w.WriteUint(0)                       // node ID
}

// hostileComponents is the 16 010-byte SetupRequest whose component
// count claims one element per byte left.
func hostileComponents() []byte {
	return hostilePER(16010, TypeSetupRequest, func(w *asn1per.Writer) {
		perSetupHead(w)
		w.WriteLength(0) // RANFunctions
	})
}

// A PER list count is bounded by the bytes left, one per element, but an
// element can take far more memory than a byte: sized by the count
// alone, hostileComponents (72 bytes a component) made Decode allocate
// 72 bytes per input byte before it failed on the truncated input. Each
// hostile list fails closed within failsClosed's bound; a thousand
// zero-valued elements of each list still decode (8.0, 18.0 and 10.6
// bytes of memory per wire byte).
func TestPERHostileListCount(t *testing.T) {
	per := NewPERCodec()
	for _, c := range []struct {
		name string
		wire []byte
	}{
		{"RANFunctions", hostilePER(16010, TypeSetupRequest, perSetupHead)},
		{"Components", hostileComponents()},
		{"Actions", hostilePER(16010, TypeSubscriptionRequest, func(w *asn1per.Writer) {
			w.WriteBits(0, 32) // RequestID
			w.WriteBits(0, 16) // RANFunctionID
			w.WriteOctets(nil) // EventTrigger
		})},
	} {
		if len(c.wire) != 16010 {
			t.Fatalf("%s: wire is %d bytes, want 16010", c.name, len(c.wire))
		}
		if _, err := per.Decode(c.wire); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: Decode error %v, want ErrBadMessage", c.name, err)
		}
		failsClosed(t, per, c.wire)
	}
	for _, pdu := range []PDU{
		&SetupRequest{RANFunctions: make([]RANFunctionItem, 1000)},
		&SetupRequest{Components: make([]E2NodeComponentConfig, 1000)},
		&SubscriptionRequest{Actions: make([]Action, 1000)},
	} {
		wire := encodeCopy(t, per, pdu)
		if got, err := per.Decode(wire); err != nil || !reflect.DeepEqual(got, pdu) {
			t.Errorf("%d-byte %s of 1000 zero elements decodes to error %v", len(wire), pdu.MsgType(), err)
		}
		failsClosed(t, per, wire)
	}
}

// aliasedSetup is a flat SetupRequest whose RAN-function list holds n
// references to one item, and that item's OID is oidLen bytes long: a
// small message that names one string n times.
func aliasedSetup(n, oidLen int) []byte {
	b := flat.NewBuilder(oidLen + 4*n + 256)
	oid := b.CreateString(strings.Repeat("o", oidLen))
	b.StartTable(4)
	b.AddUint32(0, 142)
	b.AddRef(2, oid)
	item := b.EndTable()
	refs := make([]uint32, n)
	for i := range refs {
		refs[i] = item
	}
	list := b.CreateRefVector(refs)
	b.StartTable(numSlots)
	b.AddUint8(slType, uint8(TypeSetupRequest))
	b.AddRef(slB, list)
	b.Finish(b.EndTable())
	return append([]byte(nil), b.Bytes()...)
}

// aliasedAck is a flat NodeConfigUpdateAck whose string list names one
// sLen-byte string n times.
func aliasedAck(n, sLen int) []byte {
	b := flat.NewBuilder(sLen + 4*n + 256)
	str := b.CreateString(strings.Repeat("s", sLen))
	refs := make([]uint32, n)
	for i := range refs {
		refs[i] = str
	}
	list := b.CreateRefVector(refs)
	b.StartTable(numSlots)
	b.AddUint8(slType, uint8(TypeNodeConfigUpdateAck))
	b.AddRef(slA, list)
	b.Finish(b.EndTable())
	return append([]byte(nil), b.Bytes()...)
}

// A flat message that names one long string from many list items or
// string-list entries would decode into a copy per reference; it fails
// closed once the copies outgrow the message.
func TestFlatAliasedStringsFailClosed(t *testing.T) {
	c := NewFlatCodec()
	for _, wire := range [][]byte{aliasedSetup(1000, 10000), aliasedAck(1000, 10000)} {
		if _, err := c.Decode(wire); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%d-byte aliased message: Decode error %v, want ErrBadMessage", len(wire), err)
		}
		failsClosed(t, c, wire)
	}
}
