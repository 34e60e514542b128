package sm

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"flexric/internal/encoding/walk"
)

// fill is a fields walker that writes random valid values: the
// generator behind the golden corpus. Integers spread over every PER
// length, floats are finite (the corpus is JSON), octet strings come out
// nil, empty or filled.
type fill struct{ rng *rand.Rand }

func (f fill) U8(_ int, v *uint8)         { *v = uint8(f.rng.Uint32()) }
func (f fill) U16(_ int, v *uint16)       { *v = uint16(f.rng.Uint32()) }
func (f fill) U32(_ int, v *uint32)       { *v = f.rng.Uint32() }
func (f fill) U64(_ int, v *uint64)       { *v = f.rng.Uint64() >> f.rng.Intn(64) }
func (f fill) I64(_ int, v *int64)        { *v = int64(f.rng.Uint64()) >> f.rng.Intn(64) }
func (f fill) F64(_ int, v *float64)      { *v = f.rng.NormFloat64() * 1e6 }
func (f fill) Bool(_ int, v *bool)        { *v = f.rng.Intn(2) == 0 }
func (f fill) List(int, int, uintptr) int { return f.rng.Intn(4) }
func (fill) Item(int)                     {}
func (fill) End()                         {}

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

// smType is one SM message type seen through its exported codec: a
// pointer to a new value, its encoder and decoder, and its generator.
type smType struct {
	name   string
	zero   func() any
	encode func(Scheme, any) []byte
	decode func([]byte) (any, error)
	random func(*rand.Rand) any
}

func typeOf[T any](name string, enc func(Scheme, *T) []byte, dec func([]byte) (*T, error), gen func(fill, *T)) smType {
	return smType{
		name:   name,
		zero:   func() any { return new(T) },
		encode: func(s Scheme, v any) []byte { return enc(s, v.(*T)) },
		decode: func(b []byte) (any, error) {
			v, err := dec(b)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
		random: func(rng *rand.Rand) any {
			v := new(T)
			gen(fill{rng}, v)
			return v
		},
	}
}

func walked[T any, P interface {
	*T
	walk(walk.Fields)
}](f fill, v *T) {
	P(v).walk(f)
}

// smTypes lists every SM message type.
var smTypes = []smType{
	typeOf("Trigger",
		func(s Scheme, t *Trigger) []byte { return EncodeTrigger(s, *t) },
		func(b []byte) (*Trigger, error) {
			t, err := DecodeTrigger(b)
			return &t, err
		}, walked[Trigger]),
	typeOf("HWPing", EncodeHWPing, DecodeHWPing, walked[HWPing]),
	typeOf("RRCEvent", EncodeRRCEvent, DecodeRRCEvent, walked[RRCEvent]),
	typeOf("KPMReport", EncodeKPMReport, DecodeKPMReport, walked[KPMReport]),
	typeOf("SliceControl", EncodeSliceControl, DecodeSliceControl, walked[SliceControl]),
	typeOf("SliceStatus", EncodeSliceStatus, DecodeSliceStatus, walked[SliceStatus]),
	typeOf("TCControl", EncodeTCControl, DecodeTCControl, walked[TCControl]),
	typeOf("TCOutcome", EncodeTCOutcome, DecodeTCOutcome, walked[TCOutcome]),
	typeOf("TCReport", EncodeTCReport, DecodeTCReport, walked[TCReport]),
	typeOf("MACReport", EncodeMACReport, DecodeMACReport, walked[MACReport]),
	typeOf("RLCReport", EncodeRLCReport, DecodeRLCReport, walked[RLCReport]),
	typeOf("PDCPReport", EncodePDCPReport, DecodePDCPReport, walked[PDCPReport]),
}

// emptied returns a copy of the value v points to with every nil slice
// field made empty but not nil.
func emptied(v any) any {
	out := reflect.New(reflect.TypeOf(v).Elem())
	out.Elem().Set(reflect.ValueOf(v).Elem())
	for i := 0; i < out.Elem().NumField(); i++ {
		if fv := out.Elem().Field(i); fv.Kind() == reflect.Slice && fv.IsNil() {
			fv.Set(reflect.MakeSlice(fv.Type(), 0, 0))
		}
	}
	return out.Interface()
}

// The golden corpus pins both SM wire formats: for every message type,
// its zero value, the zero value with empty rather than nil lists, and
// ten random values, with the bytes each scheme encoded them to and the
// value the decoders made of them (when that is not the value itself,
// as with an empty list). Rewrite it with -update only for a deliberate
// wire change.
const goldenPath = "testdata/fuzz/golden.json"

var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" from the current codecs")

type goldenEntry struct {
	Type    string          `json:"type"`
	Value   json.RawMessage `json:"value"`
	ASN     []byte          `json:"asn"`
	FB      []byte          `json:"fb"`
	Decoded json.RawMessage `json:"decoded,omitempty"`
}

func typeByName(name string) (smType, bool) {
	for _, st := range smTypes {
		if st.name == name {
			return st, true
		}
	}
	return smType{}, false
}

func writeGolden(t *testing.T) {
	var lines []string
	for ti, st := range smTypes {
		values := []any{st.zero(), emptied(st.zero())}
		for i := int64(0); i < 10; i++ {
			values = append(values, st.random(rand.New(rand.NewSource(int64(ti)<<8|i))))
		}
		for _, v := range values {
			e := goldenEntry{Type: st.name, ASN: st.encode(SchemeASN, v), FB: st.encode(SchemeFB, v)}
			ad, err := st.decode(e.ASN)
			if err != nil {
				t.Fatal(err)
			}
			fd, err := st.decode(e.FB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ad, fd) {
				t.Fatalf("%s: schemes decode differently\nasn %+v\n fb %+v", st.name, ad, fd)
			}
			if e.Value, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ad, v) {
				e.Decoded, _ = json.Marshal(ad)
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

func (e *goldenEntry) unmarshal(t *testing.T, st smType, raw json.RawMessage) any {
	t.Helper()
	v := st.zero()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("golden %s: %v", e.Type, err)
	}
	return v
}

// Both encoders reproduce every golden byte, and both decoders return
// exactly the value recorded beside it.
func TestGoldenCorpus(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}
	perType := map[string]int{}
	for _, e := range readGolden(t) {
		st, ok := typeByName(e.Type)
		if !ok {
			t.Fatalf("golden: unknown type %q", e.Type)
		}
		perType[e.Type]++
		v := e.unmarshal(t, st, e.Value)
		want := v
		if e.Decoded != nil {
			want = e.unmarshal(t, st, e.Decoded)
		}
		for _, sw := range []struct {
			s    Scheme
			wire []byte
		}{{SchemeASN, e.ASN}, {SchemeFB, e.FB}} {
			if got := st.encode(sw.s, v); !bytes.Equal(got, sw.wire) {
				t.Fatalf("%s encode %s %s:\n got %x\nwant %x", sw.s, e.Type, e.Value, got, sw.wire)
			}
			dec, err := st.decode(sw.wire)
			if err != nil {
				t.Fatalf("%s decode %s: %v", sw.s, e.Type, err)
			}
			if !reflect.DeepEqual(dec, want) {
				t.Fatalf("%s decode %s:\n got %+v\nwant %+v", sw.s, e.Type, dec, want)
			}
		}
	}
	if len(perType) != len(smTypes) {
		t.Fatalf("golden corpus covers %d types, want %d", len(perType), len(smTypes))
	}
	for typ, n := range perType {
		if n < 12 {
			t.Fatalf("golden corpus has %d %s values, want ≥ 12", n, typ)
		}
	}
}
