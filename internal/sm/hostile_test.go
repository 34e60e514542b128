package sm

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/flat"
)

// vectorCountAt returns the offset in an FB-encoded SM message (scheme
// byte first) of the element count of the vector in root-table slot.
func vectorCountAt(wire []byte, slot int) int {
	body, le := wire[1:], binary.LittleEndian
	root := le.Uint32(body)
	vt := le.Uint32(body[root:])
	off := le.Uint16(body[int(vt)+2+2*slot:])
	return 1 + int(le.Uint32(body[int(root)+int(off):]))
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A flat vector count is read before any element, and every FB decoder
// sizes its slice by it: a one-element message whose count claims a
// million elements must decode in a bounded number of bytes, not
// allocate a million entries.
func TestFlatDecodersBoundHostileCounts(t *testing.T) {
	cases := []struct {
		name   string
		wire   []byte
		slot   int
		decode func([]byte) error
	}{
		{"MAC", EncodeMACReport(SchemeFB, &MACReport{UEs: []MACUEEntry{{RNTI: 1}}}), 1,
			func(b []byte) error { _, err := DecodeMACReport(b); return err }},
		{"RLC", EncodeRLCReport(SchemeFB, &RLCReport{UEs: []RLCUEEntry{{RNTI: 1}}}), 1,
			func(b []byte) error { _, err := DecodeRLCReport(b); return err }},
		{"PDCP", EncodePDCPReport(SchemeFB, &PDCPReport{UEs: []PDCPUEEntry{{RNTI: 1}}}), 1,
			func(b []byte) error { _, err := DecodePDCPReport(b); return err }},
		{"SliceControl", EncodeSliceControl(SchemeFB, &SliceControl{Op: OpConfigureSlices, Slices: []SliceParams{{ID: 1}}}), 1,
			func(b []byte) error { _, err := DecodeSliceControl(b); return err }},
		{"SliceStatus.Slices", EncodeSliceStatus(SchemeFB, &SliceStatus{Slices: []SliceParams{{ID: 1}}, UEs: []UESliceAssoc{{RNTI: 1}}}), 1,
			func(b []byte) error { _, err := DecodeSliceStatus(b); return err }},
		{"SliceStatus.UEs", EncodeSliceStatus(SchemeFB, &SliceStatus{Slices: []SliceParams{{ID: 1}}, UEs: []UESliceAssoc{{RNTI: 1}}}), 2,
			func(b []byte) error { _, err := DecodeSliceStatus(b); return err }},
		{"KPM", EncodeKPMReport(SchemeFB, &KPMReport{Measurements: []KPMMeasurement{{Name: "x"}}}), 2,
			func(b []byte) error { _, err := DecodeKPMReport(b); return err }},
		{"TCReport", EncodeTCReport(SchemeFB, &TCReport{Queues: []TCQueueEntry{{ID: 1}}}), 5,
			func(b []byte) error { _, err := DecodeTCReport(b); return err }},
	}
	for _, c := range cases {
		at := vectorCountAt(c.wire, c.slot)
		if n := binary.LittleEndian.Uint32(c.wire[at:]); n != 1 {
			t.Fatalf("%s: count at %d reads %d, want the one element encoded", c.name, at, n)
		}
		binary.LittleEndian.PutUint32(c.wire[at:], 1<<20)
		var err error
		if got := allocatedBy(func() { err = c.decode(c.wire) }); got > 64<<10 {
			t.Errorf("%s: decoding a count of 2^20 in %d bytes allocated %d bytes", c.name, len(c.wire), got)
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// A flat buffer can point every element of a list at one sub-table, and
// so at one string: a KPM report of 5 kB whose thousand measurements all
// name the same kilobyte would decode to a megabyte of copies. Encoded
// strings never share bytes, so the walked decoders stop copying once
// the strings read outgrow the buffer.
func TestFlatDecodersBoundAliasedStrings(t *testing.T) {
	b := flat.NewBuilder(0)
	name := b.CreateString(strings.Repeat("x", 1000))
	b.StartTable(2)
	b.AddRef(0, name)
	m := b.EndTable()
	refs := make([]uint32, 1000)
	for i := range refs {
		refs[i] = m
	}
	vec := b.CreateRefVector(refs)
	b.StartTable(3)
	b.AddRef(2, vec)
	b.Finish(b.EndTable())
	wire := append([]byte{byte(SchemeFB)}, b.Bytes()...)
	var err error
	if got := allocatedBy(func() { _, err = DecodeKPMReport(wire) }); got > 64*uint64(len(wire)) {
		t.Errorf("decoding %d bytes allocated %d bytes", len(wire), got)
	}
	if !errors.Is(err, ErrBadPayload) {
		t.Errorf("err %v, want ErrBadPayload", err)
	}
}

// A PER list count is bounded by the bytes left, one per element, but an
// element can take far more memory than a byte: sized by the count
// alone, the TC queue list (72 bytes an entry) took 72.6 bytes per input
// byte and the RLC UE list (80 bytes an entry) 80.8 before the decode
// failed on the truncated input.
func TestPERDecodersBoundHostileCounts(t *testing.T) {
	// wire is a PER report of 8 013 bytes: its zero fields (CellTimeMS,
	// then what head writes) and a list count claiming 8 000 elements,
	// about one per byte left. Every element takes several bytes on the
	// wire, so the input holds far fewer.
	wire := func(head func(w *asn1per.Writer)) []byte {
		var w asn1per.Writer
		w.WriteBits(uint64(SchemeASN), 8)
		w.WriteInt(0) // CellTimeMS
		head(&w)
		w.WriteLength(8000)
		return append(w.Bytes(), make([]byte, 8013-len(w.Bytes()))...)
	}
	none := func(*asn1per.Writer) {}
	for _, c := range []struct {
		name   string
		wire   []byte
		decode func([]byte) error
	}{
		{"TC", wire(func(w *asn1per.Writer) {
			w.WriteBits(0, 16) // RNTI
			w.WriteBool(false) // Active
			w.WriteBits(0, 8)  // Pacer
			w.WriteBits(0, 32) // Filters
		}), func(b []byte) error { _, err := DecodeTCReport(b); return err }},
		{"MAC", wire(none), func(b []byte) error { _, err := DecodeMACReport(b); return err }},
		{"RLC", wire(none), func(b []byte) error { _, err := DecodeRLCReport(b); return err }},
		{"PDCP", wire(none), func(b []byte) error { _, err := DecodePDCPReport(b); return err }},
	} {
		if len(c.wire) != 8013 {
			t.Fatalf("%s: wire is %d bytes, want 8013", c.name, len(c.wire))
		}
		var err error
		c.decode(c.wire) // warm up the walker pool
		if got := allocatedBy(func() { err = c.decode(c.wire) }); got > 64*uint64(len(c.wire)) {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", c.name, len(c.wire), got)
		}
		if !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: err %v, want ErrBadPayload", c.name, err)
		}
	}
}
