package sm

import (
	"fmt"
	"slices"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/flat"
)

// The monitoring service models: MAC, RLC and PDCP statistics reports,
// "tailored towards specific RAN sublayers ... to easily integrate the
// agent library in disaggregated base stations" (§4.1.1). They cover the
// counters the §5.1 experiments export at 1 ms frequency ("PDCP/RLC
// packet and byte counters, MAC statistics such as CQI and used resource
// blocks").

// The three reports share one shape — a cell time and a per-UE entry
// list — so their encoders share the framing below and differ only in
// the entry fields.

// fbScratch is the FlatBuffers encode state that outlives one report
// when the caller keeps it: the builder's slot table and the entry
// reference list. A periodic reporter holds one and encodes every
// report through it without allocating; the exported Append*Report
// functions pass a fresh one.
type fbScratch struct {
	b    flat.Builder
	refs []uint32
}

// start begins a report of n entries after dst and the scheme byte.
// The caller writes entry i's table and stores its position in refs[i].
func (f *fbScratch) start(dst []byte, n int) *flat.Builder {
	f.b.ResetAppend(append(dst, byte(SchemeFB)))
	f.refs = slices.Grow(f.refs[:0], n)[:n]
	return &f.b
}

// finish writes the root table over the entries and hands the buffer
// back: the builder keeps no reference to it.
func (f *fbScratch) finish(cellTimeMS int64) []byte {
	b := &f.b
	vec := b.CreateRefVector(f.refs)
	b.StartTable(2)
	b.AddInt64(0, cellTimeMS)
	b.AddRef(1, vec)
	b.Finish(b.EndTable())
	out := b.BytesWithPrefix()
	b.Detach()
	return out
}

// startPERReport begins a PER report after dst: scheme byte, cell time
// and entry count, with room reserved for n entries of at most
// entryMax octets so a cold dst grows once.
func startPERReport(dst []byte, cellTimeMS int64, n, entryMax int) asn1per.Writer {
	var w asn1per.Writer
	w.ResetAppend(dst)
	w.Grow(14 + n*entryMax) // scheme 1 + time ≤ 9 + count ≤ 4
	w.WriteBits(uint64(SchemeASN), 8)
	w.WriteInt(cellTimeMS)
	w.WriteLength(n)
	return w
}

// MACUEEntry is one UE's MAC statistics.
type MACUEEntry struct {
	RNTI          uint16
	CQI           uint8
	MCS           uint8
	RBsUsed       uint64
	TxBits        uint64
	ThroughputBps float64
}

// MACReport is the MAC stats SM indication payload.
type MACReport struct {
	CellTimeMS int64
	UEs        []MACUEEntry
}

// EncodeMACReport serializes a MAC stats report in the given scheme.
func EncodeMACReport(s Scheme, r *MACReport) []byte {
	return AppendMACReport(nil, s, r)
}

// AppendMACReport appends an encoded MAC stats report to dst (which may
// be nil) and returns the extended slice. The caller owns the result;
// nothing is retained — the per-TTI encoder of the indication fast path
// (see docs/PERFORMANCE.md).
func AppendMACReport(dst []byte, s Scheme, r *MACReport) []byte {
	return appendMACReport(dst, s, r.CellTimeMS, r.UEs, &fbScratch{})
}

func appendMACReport(dst []byte, s Scheme, cellTimeMS int64, ues []MACUEEntry, fb *fbScratch) []byte {
	switch s {
	case SchemeFB:
		b := fb.start(dst, len(ues))
		for i, u := range ues {
			b.StartTable(6)
			b.AddUint32(0, uint32(u.RNTI))
			b.AddUint8(1, u.CQI)
			b.AddUint8(2, u.MCS)
			b.AddUint64(3, u.RBsUsed)
			b.AddUint64(4, u.TxBits)
			b.AddFloat64(5, u.ThroughputBps)
			fb.refs[i] = b.EndTable()
		}
		return fb.finish(cellTimeMS)
	default:
		// Worst case per UE: 4 fixed octets, two 9-octet uints, a float.
		w := startPERReport(dst, cellTimeMS, len(ues), 30)
		for _, u := range ues {
			w.WriteBits(uint64(u.RNTI), 16)
			w.WriteBits(uint64(u.CQI), 8)
			w.WriteBits(uint64(u.MCS), 8)
			w.WriteUint(u.RBsUsed)
			w.WriteUint(u.TxBits)
			w.WriteFloat(u.ThroughputBps)
		}
		return w.Bytes()
	}
}

// DecodeMACReport parses a MAC stats report.
func DecodeMACReport(b []byte) (*MACReport, error) {
	s, body, err := schemeOf(b)
	if err != nil {
		return nil, err
	}
	switch s {
	case SchemeFB:
		tab, err := flat.GetRoot(body)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		r := &MACReport{CellTimeMS: tab.Int64(0)}
		n := tab.VectorLen(1)
		if n > 0 {
			r.UEs = make([]MACUEEntry, n)
		}
		for i := 0; i < n; i++ {
			ut := tab.RefVectorAt(1, i)
			r.UEs[i] = MACUEEntry{
				RNTI:          uint16(ut.Uint32(0)),
				CQI:           ut.Uint8(1),
				MCS:           ut.Uint8(2),
				RBsUsed:       ut.Uint64(3),
				TxBits:        ut.Uint64(4),
				ThroughputBps: ut.Float64(5),
			}
		}
		return r, nil
	default:
		rd := asn1per.NewReader(body)
		r := &MACReport{}
		if r.CellTimeMS, err = rd.ReadInt(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		n, err := rd.ReadCount()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		if n > 0 {
			r.UEs = make([]MACUEEntry, n)
		}
		for i := range r.UEs {
			u := &r.UEs[i]
			var v uint64
			if v, err = rd.ReadBits(16); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
			u.RNTI = uint16(v)
			if v, err = rd.ReadBits(8); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
			u.CQI = uint8(v)
			if v, err = rd.ReadBits(8); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
			u.MCS = uint8(v)
			if u.RBsUsed, err = rd.ReadUint(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
			if u.TxBits, err = rd.ReadUint(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
			if u.ThroughputBps, err = rd.ReadFloat(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
		}
		return r, nil
	}
}

// RLCUEEntry is one UE's RLC statistics.
type RLCUEEntry struct {
	RNTI        uint16
	TxPackets   uint64
	TxBytes     uint64
	RxPackets   uint64
	RxBytes     uint64
	DropPackets uint64
	DropBytes   uint64
	BufferBytes uint64
	BufferPkts  uint64
	SojournMS   int64
}

// RLCReport is the RLC stats SM indication payload.
type RLCReport struct {
	CellTimeMS int64
	UEs        []RLCUEEntry
}

// EncodeRLCReport serializes an RLC stats report.
func EncodeRLCReport(s Scheme, r *RLCReport) []byte {
	return AppendRLCReport(nil, s, r)
}

// AppendRLCReport appends an encoded RLC stats report to dst (which may
// be nil) and returns the extended slice. The caller owns the result;
// nothing is retained.
func AppendRLCReport(dst []byte, s Scheme, r *RLCReport) []byte {
	return appendRLCReport(dst, s, r.CellTimeMS, r.UEs, &fbScratch{})
}

func appendRLCReport(dst []byte, s Scheme, cellTimeMS int64, ues []RLCUEEntry, fb *fbScratch) []byte {
	switch s {
	case SchemeFB:
		b := fb.start(dst, len(ues))
		for i, u := range ues {
			b.StartTable(10)
			b.AddUint32(0, uint32(u.RNTI))
			b.AddUint64(1, u.TxPackets)
			b.AddUint64(2, u.TxBytes)
			b.AddUint64(3, u.RxPackets)
			b.AddUint64(4, u.RxBytes)
			b.AddUint64(5, u.DropPackets)
			b.AddUint64(6, u.DropBytes)
			b.AddUint64(7, u.BufferBytes)
			b.AddUint64(8, u.BufferPkts)
			b.AddInt64(9, u.SojournMS)
			fb.refs[i] = b.EndTable()
		}
		return fb.finish(cellTimeMS)
	default:
		// Worst case per UE: 2 fixed octets and nine 9-octet integers.
		w := startPERReport(dst, cellTimeMS, len(ues), 83)
		for _, u := range ues {
			w.WriteBits(uint64(u.RNTI), 16)
			w.WriteUint(u.TxPackets)
			w.WriteUint(u.TxBytes)
			w.WriteUint(u.RxPackets)
			w.WriteUint(u.RxBytes)
			w.WriteUint(u.DropPackets)
			w.WriteUint(u.DropBytes)
			w.WriteUint(u.BufferBytes)
			w.WriteUint(u.BufferPkts)
			w.WriteInt(u.SojournMS)
		}
		return w.Bytes()
	}
}

// DecodeRLCReport parses an RLC stats report.
func DecodeRLCReport(b []byte) (*RLCReport, error) {
	s, body, err := schemeOf(b)
	if err != nil {
		return nil, err
	}
	switch s {
	case SchemeFB:
		tab, err := flat.GetRoot(body)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		r := &RLCReport{CellTimeMS: tab.Int64(0)}
		n := tab.VectorLen(1)
		if n > 0 {
			r.UEs = make([]RLCUEEntry, n)
		}
		for i := 0; i < n; i++ {
			ut := tab.RefVectorAt(1, i)
			r.UEs[i] = RLCUEEntry{
				RNTI:        uint16(ut.Uint32(0)),
				TxPackets:   ut.Uint64(1),
				TxBytes:     ut.Uint64(2),
				RxPackets:   ut.Uint64(3),
				RxBytes:     ut.Uint64(4),
				DropPackets: ut.Uint64(5),
				DropBytes:   ut.Uint64(6),
				BufferBytes: ut.Uint64(7),
				BufferPkts:  ut.Uint64(8),
				SojournMS:   ut.Int64(9),
			}
		}
		return r, nil
	default:
		rd := asn1per.NewReader(body)
		r := &RLCReport{}
		if r.CellTimeMS, err = rd.ReadInt(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		n, err := rd.ReadCount()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		if n > 0 {
			r.UEs = make([]RLCUEEntry, n)
		}
		for i := range r.UEs {
			u := &r.UEs[i]
			v, err := rd.ReadBits(16)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
			u.RNTI = uint16(v)
			fields := []*uint64{&u.TxPackets, &u.TxBytes, &u.RxPackets, &u.RxBytes,
				&u.DropPackets, &u.DropBytes, &u.BufferBytes, &u.BufferPkts}
			for _, f := range fields {
				if *f, err = rd.ReadUint(); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
				}
			}
			if u.SojournMS, err = rd.ReadInt(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
		}
		return r, nil
	}
}

// PDCPUEEntry is one UE's PDCP statistics.
type PDCPUEEntry struct {
	RNTI      uint16
	TxPackets uint64
	TxBytes   uint64
}

// PDCPReport is the PDCP stats SM indication payload.
type PDCPReport struct {
	CellTimeMS int64
	UEs        []PDCPUEEntry
}

// EncodePDCPReport serializes a PDCP stats report.
func EncodePDCPReport(s Scheme, r *PDCPReport) []byte {
	return AppendPDCPReport(nil, s, r)
}

// AppendPDCPReport appends an encoded PDCP stats report to dst (which
// may be nil) and returns the extended slice. The caller owns the
// result; nothing is retained.
func AppendPDCPReport(dst []byte, s Scheme, r *PDCPReport) []byte {
	return appendPDCPReport(dst, s, r.CellTimeMS, r.UEs, &fbScratch{})
}

func appendPDCPReport(dst []byte, s Scheme, cellTimeMS int64, ues []PDCPUEEntry, fb *fbScratch) []byte {
	switch s {
	case SchemeFB:
		b := fb.start(dst, len(ues))
		for i, u := range ues {
			b.StartTable(3)
			b.AddUint32(0, uint32(u.RNTI))
			b.AddUint64(1, u.TxPackets)
			b.AddUint64(2, u.TxBytes)
			fb.refs[i] = b.EndTable()
		}
		return fb.finish(cellTimeMS)
	default:
		// Worst case per UE: 2 fixed octets and two 9-octet uints.
		w := startPERReport(dst, cellTimeMS, len(ues), 20)
		for _, u := range ues {
			w.WriteBits(uint64(u.RNTI), 16)
			w.WriteUint(u.TxPackets)
			w.WriteUint(u.TxBytes)
		}
		return w.Bytes()
	}
}

// DecodePDCPReport parses a PDCP stats report.
func DecodePDCPReport(b []byte) (*PDCPReport, error) {
	s, body, err := schemeOf(b)
	if err != nil {
		return nil, err
	}
	switch s {
	case SchemeFB:
		tab, err := flat.GetRoot(body)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		r := &PDCPReport{CellTimeMS: tab.Int64(0)}
		n := tab.VectorLen(1)
		if n > 0 {
			r.UEs = make([]PDCPUEEntry, n)
		}
		for i := 0; i < n; i++ {
			ut := tab.RefVectorAt(1, i)
			r.UEs[i] = PDCPUEEntry{
				RNTI:      uint16(ut.Uint32(0)),
				TxPackets: ut.Uint64(1),
				TxBytes:   ut.Uint64(2),
			}
		}
		return r, nil
	default:
		rd := asn1per.NewReader(body)
		r := &PDCPReport{}
		if r.CellTimeMS, err = rd.ReadInt(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		n, err := rd.ReadCount()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		if n > 0 {
			r.UEs = make([]PDCPUEEntry, n)
		}
		for i := range r.UEs {
			u := &r.UEs[i]
			v, err := rd.ReadBits(16)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
			u.RNTI = uint16(v)
			if u.TxPackets, err = rd.ReadUint(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
			if u.TxBytes, err = rd.ReadUint(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
		}
		return r, nil
	}
}
