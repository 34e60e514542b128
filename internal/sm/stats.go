package sm

import "flexric/internal/encoding/walk"

// The monitoring service models: MAC, RLC and PDCP statistics reports,
// "tailored towards specific RAN sublayers ... to easily integrate the
// agent library in disaggregated base stations" (§4.1.1). They cover the
// counters the §5.1 experiments export at 1 ms frequency ("PDCP/RLC
// packet and byte counters, MAC statistics such as CQI and used resource
// blocks").
//
// The three reports share one shape, a cell time and a per-UE entry
// list, and differ only in the entry fields. Like every SM message they
// are walks (package walk); the periodic reporter (newShardStats) encodes
// every report through one value it reuses.

// MACUEEntry is one UE's MAC statistics.
type MACUEEntry struct {
	RNTI          uint16
	CQI           uint8
	MCS           uint8
	RBsUsed       uint64
	TxBits        uint64
	ThroughputBps float64
}

func (u *MACUEEntry) walk(f walk.Fields) {
	f.U16(0, &u.RNTI)
	f.U8(1, &u.CQI)
	f.U8(2, &u.MCS)
	f.U64(3, &u.RBsUsed)
	f.U64(4, &u.TxBits)
	f.F64(5, &u.ThroughputBps)
}

// MACReport is the MAC stats SM indication payload.
type MACReport struct {
	CellTimeMS int64
	UEs        []MACUEEntry
}

func (r *MACReport) walk(f walk.Fields) {
	f.I64(0, &r.CellTimeMS)
	walk.ListOf(f, 1, &r.UEs, (*MACUEEntry).walk)
}

// EncodeMACReport serializes a MAC stats report in the given scheme.
func EncodeMACReport(s Scheme, r *MACReport) []byte { return appendWalk(nil, s, r) }

// AppendMACReport appends an encoded MAC stats report to dst (which may
// be nil) and returns the extended slice. The caller owns the result;
// nothing is retained — the per-TTI encoder of the indication fast path
// (see docs/PERFORMANCE.md).
func AppendMACReport(dst []byte, s Scheme, r *MACReport) []byte { return appendWalk(dst, s, r) }

// DecodeMACReport parses a MAC stats report.
func DecodeMACReport(b []byte) (*MACReport, error) { return decodeNew[MACReport](b) }

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

func (u *RLCUEEntry) walk(f walk.Fields) {
	f.U16(0, &u.RNTI)
	f.U64(1, &u.TxPackets)
	f.U64(2, &u.TxBytes)
	f.U64(3, &u.RxPackets)
	f.U64(4, &u.RxBytes)
	f.U64(5, &u.DropPackets)
	f.U64(6, &u.DropBytes)
	f.U64(7, &u.BufferBytes)
	f.U64(8, &u.BufferPkts)
	f.I64(9, &u.SojournMS)
}

// RLCReport is the RLC stats SM indication payload.
type RLCReport struct {
	CellTimeMS int64
	UEs        []RLCUEEntry
}

func (r *RLCReport) walk(f walk.Fields) {
	f.I64(0, &r.CellTimeMS)
	walk.ListOf(f, 1, &r.UEs, (*RLCUEEntry).walk)
}

// EncodeRLCReport serializes an RLC stats report.
func EncodeRLCReport(s Scheme, r *RLCReport) []byte { return appendWalk(nil, s, r) }

// AppendRLCReport appends an encoded RLC stats report to dst (which may
// be nil) and returns the extended slice. The caller owns the result;
// nothing is retained.
func AppendRLCReport(dst []byte, s Scheme, r *RLCReport) []byte { return appendWalk(dst, s, r) }

// DecodeRLCReport parses an RLC stats report.
func DecodeRLCReport(b []byte) (*RLCReport, error) { return decodeNew[RLCReport](b) }

// PDCPUEEntry is one UE's PDCP statistics.
type PDCPUEEntry struct {
	RNTI      uint16
	TxPackets uint64
	TxBytes   uint64
}

func (u *PDCPUEEntry) walk(f walk.Fields) {
	f.U16(0, &u.RNTI)
	f.U64(1, &u.TxPackets)
	f.U64(2, &u.TxBytes)
}

// PDCPReport is the PDCP stats SM indication payload.
type PDCPReport struct {
	CellTimeMS int64
	UEs        []PDCPUEEntry
}

func (r *PDCPReport) walk(f walk.Fields) {
	f.I64(0, &r.CellTimeMS)
	walk.ListOf(f, 1, &r.UEs, (*PDCPUEEntry).walk)
}

// EncodePDCPReport serializes a PDCP stats report.
func EncodePDCPReport(s Scheme, r *PDCPReport) []byte { return appendWalk(nil, s, r) }

// AppendPDCPReport appends an encoded PDCP stats report to dst (which
// may be nil) and returns the extended slice. The caller owns the
// result; nothing is retained.
func AppendPDCPReport(dst []byte, s Scheme, r *PDCPReport) []byte { return appendWalk(dst, s, r) }

// DecodePDCPReport parses a PDCP stats report.
func DecodePDCPReport(b []byte) (*PDCPReport, error) { return decodeNew[PDCPReport](b) }
