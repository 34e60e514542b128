package sm

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"flexric/internal/nvs"
)

func schemes() []Scheme { return []Scheme{SchemeASN, SchemeFB} }

func TestTriggerRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		for _, period := range []uint32{1, 10, 1000} {
			b := EncodeTrigger(s, Trigger{PeriodMS: period})
			got, err := DecodeTrigger(b)
			if err != nil || got.PeriodMS != period {
				t.Fatalf("%s period %d: got %+v err %v", s, period, got, err)
			}
		}
	}
}

func TestSchemePrefix(t *testing.T) {
	if b := EncodeTrigger(SchemeASN, Trigger{PeriodMS: 1}); b[0] != byte(SchemeASN) {
		t.Fatal("ASN prefix")
	}
	if b := EncodeTrigger(SchemeFB, Trigger{PeriodMS: 1}); b[0] != byte(SchemeFB) {
		t.Fatal("FB prefix")
	}
	if _, err := DecodeTrigger([]byte{99, 0}); err == nil {
		t.Fatal("unknown scheme byte must fail")
	}
	if _, err := DecodeTrigger(nil); err == nil {
		t.Fatal("empty payload must fail")
	}
}

func sampleMAC() *MACReport {
	return &MACReport{
		CellTimeMS: 12345,
		UEs: []MACUEEntry{
			{RNTI: 1, CQI: 15, MCS: 28, RBsUsed: 1000, TxBits: 1 << 30, ThroughputBps: 17.5e6},
			{RNTI: 2, CQI: 11, MCS: 20, RBsUsed: 500, TxBits: 1 << 20, ThroughputBps: 3e6},
		},
	}
}

func TestMACReportRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		r := sampleMAC()
		got, err := DecodeMACReport(EncodeMACReport(s, r))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%s:\n got %+v\nwant %+v", s, got, r)
		}
	}
}

func TestMACReportEmpty(t *testing.T) {
	for _, s := range schemes() {
		r := &MACReport{CellTimeMS: 7}
		got, err := DecodeMACReport(EncodeMACReport(s, r))
		if err != nil || got.CellTimeMS != 7 || len(got.UEs) != 0 {
			t.Fatalf("%s: %+v %v", s, got, err)
		}
	}
}

func TestRLCReportRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		r := &RLCReport{
			CellTimeMS: 99,
			UEs: []RLCUEEntry{{
				RNTI: 3, TxPackets: 10, TxBytes: 10000, RxPackets: 12, RxBytes: 12000,
				DropPackets: 2, DropBytes: 2000, BufferBytes: 5000, BufferPkts: 4, SojournMS: 1500,
			}},
		}
		got, err := DecodeRLCReport(EncodeRLCReport(s, r))
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: %+v %v", s, got, err)
		}
	}
}

func TestPDCPReportRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		r := &PDCPReport{CellTimeMS: 1, UEs: []PDCPUEEntry{{RNTI: 9, TxPackets: 5, TxBytes: 640}}}
		got, err := DecodePDCPReport(EncodePDCPReport(s, r))
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: %+v %v", s, got, err)
		}
	}
}

func TestSliceControlRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		c := &SliceControl{
			Op: OpConfigureSlices,
			Slices: []SliceParams{
				{ID: 1, Kind: 0, CapacityQ: 660000, UESched: "pf"},
				{ID: 2, Kind: 1, RateRsv: 5e6, RateRef: 50e6, NoSharing: true, UESched: "rr"},
			},
		}
		got, err := DecodeSliceControl(EncodeSliceControl(s, c))
		if err != nil || !reflect.DeepEqual(got, c) {
			t.Fatalf("%s:\n got %+v\nwant %+v\nerr %v", s, got, c, err)
		}
		assoc := &SliceControl{Op: OpAssociateUE, RNTI: 17, SliceID: 2}
		got, err = DecodeSliceControl(EncodeSliceControl(s, assoc))
		if err != nil || !reflect.DeepEqual(got, assoc) {
			t.Fatalf("%s assoc: %+v %v", s, got, err)
		}
	}
}

func TestSliceParamsNVSConversion(t *testing.T) {
	cfgs := []nvs.Config{
		{ID: 1, Kind: nvs.KindCapacity, Capacity: 0.66, UESched: "pf"},
		{ID: 2, Kind: nvs.KindRate, RateRsv: 5e6, RateRef: 50e6, NoSharing: true},
	}
	back := ToNVS(ParamsFromNVS(cfgs))
	if len(back) != 2 {
		t.Fatal("length")
	}
	if back[0].Capacity < 0.6599 || back[0].Capacity > 0.6601 {
		t.Fatalf("capacity %v", back[0].Capacity)
	}
	if back[1].RateRsv != 5e6 || back[1].RateRef != 50e6 || !back[1].NoSharing {
		t.Fatalf("rate slice %+v", back[1])
	}
}

func TestSliceStatusRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		st := &SliceStatus{
			Algo:   "nvs",
			Slices: []SliceParams{{ID: 1, CapacityQ: 500000, UESched: "pf"}},
			UEs:    []UESliceAssoc{{RNTI: 1, SliceID: 1}, {RNTI: 2, SliceID: 2}},
		}
		got, err := DecodeSliceStatus(EncodeSliceStatus(s, st))
		if err != nil || !reflect.DeepEqual(got, st) {
			t.Fatalf("%s: %+v %v", s, got, err)
		}
	}
}

func TestTCControlRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		cases := []*TCControl{
			{Op: OpAddQueue, RNTI: 1},
			{Op: OpRemoveQueue, RNTI: 1, Queue: 2},
			{Op: OpAddFilter, RNTI: 1, Queue: 1, DstPort: 5060, Proto: 17, MatchProto: true, SrcIP: 0xC0A80001},
			{Op: OpSetPacer, RNTI: 1, Pacer: 1, PacerTargetMS: 4},
		}
		for _, c := range cases {
			got, err := DecodeTCControl(EncodeTCControl(s, c))
			if err != nil || !reflect.DeepEqual(got, c) {
				t.Fatalf("%s %+v: got %+v err %v", s, c, got, err)
			}
		}
	}
}

func TestTCOutcomeAndReportRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		o, err := DecodeTCOutcome(EncodeTCOutcome(s, &TCOutcome{Queue: 3}))
		if err != nil || o.Queue != 3 {
			t.Fatalf("%s outcome: %+v %v", s, o, err)
		}
		r := &TCReport{
			CellTimeMS: 10, RNTI: 4, Active: true, Pacer: 1, Filters: 2,
			Queues: []TCQueueEntry{
				{ID: 0, EnqPackets: 100, EnqBytes: 150000, DeqPackets: 90, DeqBytes: 140000, DropPackets: 1, BufferBytes: 10000, BufferPkts: 10, SojournMS: 44},
				{ID: 1, EnqPackets: 5, DeqPackets: 5},
			},
		}
		got, err := DecodeTCReport(EncodeTCReport(s, r))
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("%s report:\n got %+v\nwant %+v\nerr %v", s, got, r, err)
		}
	}
}

func TestHWPingRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		p := &HWPing{Seq: 42, T0: 123456789, Data: bytes.Repeat([]byte{0xAA}, 100)}
		got, err := DecodeHWPing(EncodeHWPing(s, p))
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("%s: %+v %v", s, got, err)
		}
		empty := &HWPing{Seq: 1, T0: -5}
		got, err = DecodeHWPing(EncodeHWPing(s, empty))
		if err != nil || !reflect.DeepEqual(got, empty) {
			t.Fatalf("%s empty: %+v %v", s, got, err)
		}
	}
}

func TestHWPingPayloadSizes(t *testing.T) {
	// Fig. 7 uses 100 B and 1500 B payloads; the FB encoding must carry
	// tens of bytes more overhead than ASN (the 30-40 B the paper saw).
	for _, n := range []int{100, 1500} {
		p := &HWPing{Seq: 1, T0: 1, Data: bytes.Repeat([]byte{1}, n)}
		asn := len(EncodeHWPing(SchemeASN, p))
		fb := len(EncodeHWPing(SchemeFB, p))
		if fb <= asn {
			t.Fatalf("n=%d: fb %d <= asn %d", n, fb, asn)
		}
		if d := fb - asn; d < 10 || d > 80 {
			t.Fatalf("n=%d: overhead %d B, want tens", n, d)
		}
	}
}

func TestRRCEventRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		e := &RRCEvent{Kind: RRCAttach, RNTI: 17, PLMNID: "208.95", SNSSAI: 1, IMSI: "001010000000017"}
		got, err := DecodeRRCEvent(EncodeRRCEvent(s, e))
		if err != nil || !reflect.DeepEqual(got, e) {
			t.Fatalf("%s: %+v %v", s, got, err)
		}
	}
}

func TestKPMReportRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		r := &KPMReport{
			CellTimeMS:    5,
			GranularityMS: 1000,
			Measurements: []KPMMeasurement{
				{Name: "DRB.UEThpDl", Value: 17.4e6},
				{Name: "RRC.ConnMean", Value: 3},
			},
		}
		got, err := DecodeKPMReport(EncodeKPMReport(s, r))
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: %+v %v", s, got, err)
		}
	}
}

func TestDecodersRejectGarbage(t *testing.T) {
	f := func(b []byte) bool {
		// None of these may panic; errors are fine.
		_, _ = DecodeTrigger(b)
		_, _ = DecodeMACReport(b)
		_, _ = DecodeRLCReport(b)
		_, _ = DecodePDCPReport(b)
		_, _ = DecodeSliceControl(b)
		_, _ = DecodeSliceStatus(b)
		_, _ = DecodeTCControl(b)
		_, _ = DecodeTCOutcome(b)
		_, _ = DecodeTCReport(b)
		_, _ = DecodeHWPing(b)
		_, _ = DecodeRRCEvent(b)
		_, _ = DecodeKPMReport(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMACReportRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		r := &MACReport{CellTimeMS: rng.Int63()}
		n := rng.Intn(40)
		for j := 0; j < n; j++ {
			r.UEs = append(r.UEs, MACUEEntry{
				RNTI:          uint16(rng.Uint32()),
				CQI:           uint8(rng.Intn(16)),
				MCS:           uint8(rng.Intn(29)),
				RBsUsed:       rng.Uint64(),
				TxBits:        rng.Uint64(),
				ThroughputBps: rng.Float64() * 1e9,
			})
		}
		for _, s := range schemes() {
			got, err := DecodeMACReport(EncodeMACReport(s, r))
			if err != nil || !reflect.DeepEqual(got, r) {
				t.Fatalf("%s iter %d: err %v", s, i, err)
			}
		}
	}
}

// ASN encodings must be denser than FB for the same report (the
// bandwidth/CPU trade the SDK exposes, §4.3).
func TestStatsEncodingSizeTradeoff(t *testing.T) {
	r := &MACReport{CellTimeMS: 1}
	for i := 0; i < 32; i++ {
		r.UEs = append(r.UEs, MACUEEntry{RNTI: uint16(i), CQI: 15, MCS: 28, RBsUsed: 1e4, TxBits: 1e6, ThroughputBps: 2e7})
	}
	asn := len(EncodeMACReport(SchemeASN, r))
	fb := len(EncodeMACReport(SchemeFB, r))
	if asn >= fb {
		t.Fatalf("asn %d >= fb %d", asn, fb)
	}
}

func BenchmarkEncodeMACReportASN(b *testing.B) { benchEncodeMAC(b, SchemeASN) }
func BenchmarkEncodeMACReportFB(b *testing.B)  { benchEncodeMAC(b, SchemeFB) }

func benchEncodeMAC(b *testing.B, s Scheme) {
	r := &MACReport{CellTimeMS: 1}
	for i := 0; i < 32; i++ {
		r.UEs = append(r.UEs, MACUEEntry{RNTI: uint16(i), CQI: 15, MCS: 28, RBsUsed: 1e4, TxBits: 1e6, ThroughputBps: 2e7})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeMACReport(s, r)
	}
}

func BenchmarkDecodeMACReportASN(b *testing.B) { benchDecodeMAC(b, SchemeASN) }
func BenchmarkDecodeMACReportFB(b *testing.B)  { benchDecodeMAC(b, SchemeFB) }

func benchDecodeMAC(b *testing.B, s Scheme) {
	r := &MACReport{CellTimeMS: 1}
	for i := 0; i < 32; i++ {
		r.UEs = append(r.UEs, MACUEEntry{RNTI: uint16(i), CQI: 15, MCS: 28, RBsUsed: 1e4, TxBits: 1e6, ThroughputBps: 2e7})
	}
	wire := EncodeMACReport(s, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMACReport(wire); err != nil {
			b.Fatal(err)
		}
	}
}
