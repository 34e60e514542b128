package e2ap

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"flexric/internal/trace"
)

// fill is a fields walker that writes random valid values: the
// generator behind the golden corpus and the codec sweeps. Octet strings
// and scalar lists come out nil, empty or filled, optional fields
// present or absent, trace contexts set or zero. Enumerations, PLMN
// digits and the 20-bit RIC ID stay inside their PER constraints.
type fill struct{ rng *rand.Rand }

func (f fill) U8(_ int, v *uint8)   { *v = uint8(f.rng.Uint32()) }
func (f fill) U16(_ int, v *uint16) { *v = uint16(f.rng.Uint32()) }
func (f fill) U32(_ int, v *uint32) { *v = f.rng.Uint32() }

func (f fill) enum(_ int, v *uint8, card int) { *v = uint8(f.rng.Intn(card)) }
func (f fill) Bool(_ int, v *bool)            { *v = f.rng.Intn(2) == 0 }

func (f fill) Str(_ int, v *string) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.:-"
	b := make([]byte, f.rng.Intn(10))
	for i := range b {
		b[i] = alphabet[f.rng.Intn(len(alphabet))]
	}
	*v = string(b)
}

func (f fill) Octets(_ int, v *[]byte) {
	switch f.rng.Intn(3) {
	case 0:
		*v = nil
	case 1:
		*v = []byte{}
	default:
		*v = make([]byte, 1+f.rng.Intn(8))
		f.rng.Read(*v)
	}
}

func (f fill) optOctets(slot int, v *[]byte) { f.Octets(slot, v) }

func (f fill) present(_ int, has *bool) bool {
	*has = f.rng.Intn(2) == 0
	return *has
}

func (f fill) cause(_ int, v *Cause) {
	*v = Cause{Type: CauseType(f.rng.Intn(5)), Value: uint8(f.rng.Uint32())}
}

func (f fill) reqID(v *RequestID) {
	*v = RequestID{Requestor: uint16(f.rng.Uint32()), Instance: uint16(f.rng.Uint32())}
}

func (f fill) plmn() PLMN { return PLMN{MCC: uint16(f.rng.Intn(1000)), MNC: uint16(f.rng.Intn(1000))} }

func (f fill) nodeID(_ int, v *GlobalE2NodeID) {
	*v = GlobalE2NodeID{PLMN: f.plmn(), Type: NodeType(f.rng.Intn(6)), NodeID: f.rng.Uint64() >> f.rng.Intn(64)}
}

func (f fill) ricID(_ int, v *GlobalRICID) {
	*v = GlobalRICID{PLMN: f.plmn(), RICID: uint32(f.rng.Intn(1 << 20))}
}

func (f fill) traceCtx(v *trace.Context) {
	*v = trace.Context{}
	if f.rng.Intn(2) == 0 {
		*v = trace.Context{TraceID: f.rng.Uint64() | 1, SpanID: f.rng.Uint64()}
	}
}

// count picks a list length for a scalar list: -1 stands for nil.
func (f fill) count() int { return f.rng.Intn(4) - 1 }

func (f fill) u16s(_ int, v *[]uint16) {
	*v = nil
	if n := f.count(); n >= 0 {
		*v = make([]uint16, n)
		for i := range *v {
			f.U16(0, &(*v)[i])
		}
	}
}

func (f fill) strs(_ int, v *[]string) {
	*v = nil
	if n := f.count(); n >= 0 {
		*v = make([]string, n)
		for i := range *v {
			f.Str(0, &(*v)[i])
		}
	}
}

func (f fill) List(int, int, uintptr) int { return f.rng.Intn(4) }
func (fill) Item(int)                     {}
func (fill) End()                         {}

// E2AP walks hold no 64-bit or float field.
func (fill) U64(int, *uint64)  {}
func (fill) I64(int, *int64)   {}
func (fill) F64(int, *float64) {}

// randomPDU returns a random valid message of type t. Indication, the
// hand-written type, has no walk; its fields are filled in wire order by
// hand.
func randomPDU(rng *rand.Rand, t MessageType) PDU {
	f := fill{rng}
	if t == TypeIndication {
		m := &Indication{}
		walkFunc(f, &m.RequestID, &m.RANFunctionID)
		f.U8(0, &m.ActionID)
		f.U32(0, &m.SN)
		f.enum(0, (*uint8)(&m.Class), 2)
		f.Octets(0, &m.Header)
		f.Octets(0, &m.Payload)
		f.Octets(0, &m.CallProcessID)
		f.traceCtx(&m.Trace)
		return m
	}
	m := newMessage[t]()
	m.walk(f)
	return m
}

// sweepPDUs returns n random valid messages of every type.
func sweepPDUs(n int, seed int64) []PDU {
	rng := rand.New(rand.NewSource(seed))
	var out []PDU
	for t := MessageType(0); t < numMessageTypes; t++ {
		for i := 0; i < n; i++ {
			out = append(out, randomPDU(rng, t))
		}
	}
	return out
}

// canonical returns what a decoder makes of pdu: every empty octet
// string and list becomes nil.
func canonical(pdu PDU) PDU {
	v := reflect.New(reflect.TypeOf(pdu).Elem())
	v.Elem().Set(reflect.ValueOf(pdu).Elem())
	nilEmpty(v.Elem())
	return v.Interface().(PDU)
}

func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmpty(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		s := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(s, v)
		for i := 0; i < s.Len(); i++ {
			nilEmpty(s.Index(i))
		}
		v.Set(s)
	}
}

// The golden corpus pins both wire formats: for every message type, twelve
// random messages with the bytes each codec encoded them to and the
// message each decoded back (when that is not the message itself, as
// with empty octet strings). Rewrite it with -update only for a
// deliberate wire change.
const goldenPath = "testdata/fuzz/golden.json"

var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" from the current codecs")

type goldenEntry struct {
	Type    string          `json:"type"`
	PDU     json.RawMessage `json:"pdu"`
	ASN     []byte          `json:"asn"`
	FB      []byte          `json:"fb"`
	Decoded json.RawMessage `json:"decoded,omitempty"`
}

// zeroPDU returns a new zero message of type t.
func zeroPDU(t MessageType) PDU {
	for _, p := range samplePDUs() {
		if p.MsgType() == t {
			return reflect.New(reflect.TypeOf(p).Elem()).Interface().(PDU)
		}
	}
	panic("no sample for " + t.String())
}

func typeByName(name string) (MessageType, bool) {
	for t := MessageType(0); t < numMessageTypes; t++ {
		if t.String() == name {
			return t, true
		}
	}
	return 0, false
}

func (e *goldenEntry) unmarshal(t *testing.T, raw json.RawMessage) PDU {
	t.Helper()
	typ, ok := typeByName(e.Type)
	if !ok {
		t.Fatalf("golden: unknown type %q", e.Type)
	}
	pdu := zeroPDU(typ)
	if err := json.Unmarshal(raw, pdu); err != nil {
		t.Fatalf("golden %s: %v", e.Type, err)
	}
	return pdu
}

func writeGolden(t *testing.T) {
	per, fb := NewPERCodec(), NewFlatCodec()
	var lines []string
	for typ := MessageType(0); typ < numMessageTypes; typ++ {
		for i := int64(0); i < 12; i++ {
			pdu := randomPDU(rand.New(rand.NewSource(int64(typ)<<8|i)), typ)
			e := goldenEntry{Type: typ.String(), ASN: encodeCopy(t, per, pdu), FB: encodeCopy(t, fb, pdu)}
			pd, err := per.Decode(e.ASN)
			if err != nil {
				t.Fatal(err)
			}
			fd, err := fb.Decode(e.FB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pd, fd) {
				t.Fatalf("%s seed %d: codecs decode differently\nasn %+v\n fb %+v", typ, i, pd, fd)
			}
			if e.PDU, err = json.Marshal(pdu); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pd, pdu) {
				e.Decoded, _ = json.Marshal(pd)
			}
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(line))
		}
	}
	out := "[\n" + strings.Join(lines, ",\n") + "\n]\n"
	if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t testing.TB) []goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	return entries
}

// Both encoders reproduce every golden byte, and both decoders return
// exactly the message recorded beside it.
func TestGoldenCorpus(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}
	per, fb := NewPERCodec(), NewFlatCodec()
	perType := map[string]int{}
	for _, e := range readGolden(t) {
		perType[e.Type]++
		pdu := e.unmarshal(t, e.PDU)
		want := pdu
		if e.Decoded != nil {
			want = e.unmarshal(t, e.Decoded)
		}
		for _, cw := range []struct {
			c    Codec
			wire []byte
		}{{per, e.ASN}, {fb, e.FB}} {
			got, err := cw.c.Encode(pdu)
			if err != nil {
				t.Fatalf("%s encode %s: %v", cw.c.Name(), e.Type, err)
			}
			if !bytes.Equal(got, cw.wire) {
				t.Fatalf("%s encode %s %s:\n got %x\nwant %x", cw.c.Name(), e.Type, e.PDU, got, cw.wire)
			}
			dec, err := cw.c.Decode(cw.wire)
			if err != nil {
				t.Fatalf("%s decode %s: %v", cw.c.Name(), e.Type, err)
			}
			if !reflect.DeepEqual(dec, want) {
				t.Fatalf("%s decode %s:\n got %+v\nwant %+v", cw.c.Name(), e.Type, dec, want)
			}
		}
	}
	if len(perType) != NumMessageTypes {
		t.Fatalf("golden corpus covers %d types, want %d", len(perType), NumMessageTypes)
	}
	for typ, n := range perType {
		if n < 8 {
			t.Fatalf("golden corpus has %d %s messages, want ≥ 8", n, typ)
		}
	}
}
