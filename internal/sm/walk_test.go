package sm

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// failsClosed is the oracle of FuzzSMDecode. Whatever wire holds, st's
// decoder must not panic, and it either fails with ErrBadPayload or
// ErrBadScheme, or returns a value whose re-encoding, in the payload's
// scheme, decodes and re-encodes to the same bytes. Bytes, not values,
// are compared: a PER float read off arbitrary bytes can be NaN. A
// decode allocates at most 64 bytes per input byte: no count read off
// the wire sizes a slice past what the input can hold. The slack absorbs
// the heap's per-span accounting and a walker pool emptied by a GC.
func failsClosed(t testing.TB, st smType, wire []byte) {
	t.Helper()
	var v any
	var err error
	st.decode(wire) // warm up the walker pool
	if n := allocatedBy(func() { v, err = st.decode(wire) }); n > 64*uint64(len(wire))+64<<10 {
		t.Fatalf("%s: decoding %d bytes allocated %d bytes: %x", st.name, len(wire), n, wire)
	}
	if err != nil {
		if !errors.Is(err, ErrBadPayload) && !errors.Is(err, ErrBadScheme) {
			t.Fatalf("%s: %v, want ErrBadPayload or ErrBadScheme: %x", st.name, err, wire)
		}
		return
	}
	s := Scheme(wire[0])
	again := st.encode(s, v)
	v2, err := st.decode(again)
	if err != nil {
		t.Fatalf("%s: %s re-encoding %x of %+v fails to decode: %v", st.name, s, again, v, err)
	}
	if third := st.encode(s, v2); !bytes.Equal(third, again) {
		t.Fatalf("%s: %s re-encoding is not stable:\n%x\n%x\nfrom %x", st.name, s, again, third, wire)
	}
}

// FuzzSMDecode runs every SM decoder on arbitrary bytes under the
// failsClosed oracle, seeded with every wire of the golden corpus.
func FuzzSMDecode(f *testing.F) {
	for _, e := range readGolden(f) {
		f.Add(e.ASN)
		f.Add(e.FB)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		for _, st := range smTypes {
			failsClosed(t, st, wire)
		}
	})
}

// canonical returns what a decoder makes of the value v points to:
// every empty list and octet string becomes nil.
func canonical(v any) any {
	out := reflect.New(reflect.TypeOf(v).Elem())
	out.Elem().Set(reflect.ValueOf(v).Elem())
	nilEmpty(out.Elem())
	return out.Interface()
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

// Random values of every type survive both schemes, and every strict
// prefix of their wires fails closed.
func TestWalkRoundTripSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, st := range smTypes {
		for i := 0; i < 12; i++ {
			v := st.random(rng)
			for _, s := range schemes() {
				wire := st.encode(s, v)
				got, err := st.decode(wire)
				if err != nil {
					t.Fatalf("%s %s: %v", s, st.name, err)
				}
				if want := canonical(v); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s:\n got %+v\nwant %+v", s, st.name, got, want)
				}
				for n := 0; n < len(wire); n++ {
					failsClosed(t, st, wire[:n])
				}
			}
		}
	}
}

// walkAllocs checks what one encode and one decode of m allocate in
// each scheme, as AllocsPerRun counts them.
func walkAllocs[T any](t *testing.T, m *T, enc func(Scheme, *T) []byte, dec func([]byte) (*T, error), want [2]float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, s := range schemes() {
		wire := enc(s, m)
		got := [2]float64{
			testing.AllocsPerRun(100, func() { enc(s, m) }),
			testing.AllocsPerRun(100, func() { dec(wire) }),
		}
		if got != want {
			t.Errorf("%s: encode, decode allocate %v per message, want %v", s, got, want)
		}
	}
}

// The two walked types a steady state runs are the slicing SM's: in
// the ctrl_loop benchmark every control cycle encodes and decodes one
// SliceControl, and each agent's 100 ms status subscription one
// SliceStatus per 100 cycles. An encode allocates only its result, where
// the hand-written arms allocated more; a decode allocates what they
// did.

// A SliceControl decode allocates the message, its slice list and the
// one non-empty scheduler name (hand-written encode: 2 PER, 4 flat).
func TestSliceControlWalkAllocs(t *testing.T) {
	walkAllocs(t, &SliceControl{Op: OpConfigureSlices, Slices: []SliceParams{
		{ID: 1, CapacityQ: 750_000, UESched: "pf"},
		{ID: 2, CapacityQ: 250_000},
	}}, EncodeSliceControl, DecodeSliceControl, [2]float64{1, 3})
}

// A SliceStatus of ctrl_loop's shape, two slices and 32 UEs: its decode
// allocates the message, the algorithm name and the two lists
// (hand-written encode: 3 PER, 8 flat).
func TestSliceStatusWalkAllocs(t *testing.T) {
	st := &SliceStatus{Algo: "nvs", Slices: []SliceParams{{ID: 1, CapacityQ: 500_000}, {ID: 2, CapacityQ: 500_000}}}
	for rnti := 1; rnti <= 32; rnti++ {
		st.UEs = append(st.UEs, UESliceAssoc{RNTI: uint16(rnti), SliceID: uint32(1 + rnti%2)})
	}
	walkAllocs(t, st, EncodeSliceStatus, DecodeSliceStatus, [2]float64{1, 4})
}

// The per-TTI reports with a non-empty UE list: an encode allocates its
// result, a decode the report and its UE list.
func TestReportWalkAllocs(t *testing.T) {
	t.Run("MAC", func(t *testing.T) {
		walkAllocs(t, &MACReport{CellTimeMS: 7, UEs: []MACUEEntry{{RNTI: 1, CQI: 9}, {RNTI: 2, TxBits: 1 << 20}}},
			EncodeMACReport, DecodeMACReport, [2]float64{1, 2})
	})
	t.Run("RLC", func(t *testing.T) {
		walkAllocs(t, &RLCReport{CellTimeMS: 7, UEs: []RLCUEEntry{{RNTI: 1, TxBytes: 1500}, {RNTI: 2, SojournMS: -1}}},
			EncodeRLCReport, DecodeRLCReport, [2]float64{1, 2})
	})
	t.Run("PDCP", func(t *testing.T) {
		walkAllocs(t, &PDCPReport{CellTimeMS: 7, UEs: []PDCPUEEntry{{RNTI: 1, TxPackets: 3}, {RNTI: 2}}},
			EncodePDCPReport, DecodePDCPReport, [2]float64{1, 2})
	})
}

// warmEncoders returns, per report kind and scheme, an append-style
// encode of a 32-UE report with counters of mixed widths.
func warmEncoders() map[string]func(dst []byte) []byte {
	mac := &MACReport{CellTimeMS: 123456, UEs: make([]MACUEEntry, 32)}
	rlc := &RLCReport{CellTimeMS: 123456, UEs: make([]RLCUEEntry, 32)}
	pdcp := &PDCPReport{CellTimeMS: 123456, UEs: make([]PDCPUEEntry, 32)}
	for i := 0; i < 32; i++ {
		n := uint64(i)
		mac.UEs[i] = MACUEEntry{RNTI: uint16(i + 1), CQI: 9, MCS: 20, RBsUsed: n << 20, TxBits: n << 33, ThroughputBps: 1e6 * float64(i)}
		rlc.UEs[i] = RLCUEEntry{RNTI: uint16(i + 1), TxPackets: n << 9, TxBytes: n << 30, BufferBytes: n << 12, SojournMS: int64(i)}
		pdcp.UEs[i] = PDCPUEEntry{RNTI: uint16(i + 1), TxPackets: n << 9, TxBytes: n << 30}
	}
	encs := map[string]func(dst []byte) []byte{}
	for _, s := range schemes() {
		encs["mac/"+s.String()] = func(dst []byte) []byte { return AppendMACReport(dst, s, mac) }
		encs["rlc/"+s.String()] = func(dst []byte) []byte { return AppendRLCReport(dst, s, rlc) }
		encs["pdcp/"+s.String()] = func(dst []byte) []byte { return AppendPDCPReport(dst, s, pdcp) }
	}
	return encs
}

// Into a cold destination a report encoder grows the buffer once; into
// a warm one it does not allocate at all.
func TestAppendReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for name, enc := range warmEncoders() {
		if cold := testing.AllocsPerRun(20, func() { enc(nil) }); cold != 1 {
			t.Errorf("%s: %.1f allocations into a nil destination, want 1 (one growth)", name, cold)
		}
		dst := enc(nil)
		if warm := testing.AllocsPerRun(100, func() { dst = enc(dst[:0]) }); warm != 0 {
			t.Errorf("%s: %.1f allocations into a warm destination, want 0", name, warm)
		}
	}
}

func benchAppend(b *testing.B, kind string) {
	enc := warmEncoders()[kind]
	dst := enc(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = enc(dst[:0])
	}
}

func BenchmarkAppendMACReportPER(b *testing.B)  { benchAppend(b, "mac/asn") }
func BenchmarkAppendRLCReportPER(b *testing.B)  { benchAppend(b, "rlc/asn") }
func BenchmarkAppendPDCPReportPER(b *testing.B) { benchAppend(b, "pdcp/asn") }
