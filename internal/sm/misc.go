package sm

import "flexric/internal/encoding/walk"

// This file carries the remaining shipped SMs: the Hello-World ping SM
// used by the §5.2 encoding experiments, the RRC UE-notification SM that
// lets slicing xApps discover UE-to-service associations (§6.1.2), and an
// O-RAN-style KPM SM (Appendix A.4).

// HWPing is the Hello-World SM payload: the paper's modified HW-E2SM
// "performs a ping by sending a control message to the RAN function, to
// which the agent responds with an indication message."
type HWPing struct {
	Seq uint64
	// T0 is the sender's monotonic timestamp in ns, echoed back for RTT.
	T0 int64
	// Data pads the message to the experiment's payload size.
	Data []byte
}

func (p *HWPing) walk(f walk.Fields) {
	f.U64(0, &p.Seq)
	f.I64(1, &p.T0)
	f.Octets(2, &p.Data)
}

// EncodeHWPing serializes a ping payload.
func EncodeHWPing(s Scheme, p *HWPing) []byte { return appendWalk(nil, s, p) }

// DecodeHWPing parses a ping payload.
func DecodeHWPing(b []byte) (*HWPing, error) { return decodeNew[HWPing](b) }

// RRCEventKind distinguishes UE lifecycle notifications.
type RRCEventKind uint8

// RRC UE events.
const (
	RRCAttach RRCEventKind = iota + 1
	RRCDetach
)

// RRCEvent is the RRC SM indication payload: "through RRC UE
// notifications, the xApp discovers the UE-to-service association through
// the selected PLMN identification or slice information (S-NSSAI)
// provided in the attach procedure" (§6.1.2).
type RRCEvent struct {
	Kind   RRCEventKind
	RNTI   uint16
	PLMNID string
	SNSSAI uint32
	IMSI   string
}

func (e *RRCEvent) walk(f walk.Fields) {
	f.U8(0, (*uint8)(&e.Kind))
	f.U16(1, &e.RNTI)
	f.Str(2, &e.PLMNID)
	f.U32(3, &e.SNSSAI)
	f.Str(4, &e.IMSI)
}

// EncodeRRCEvent serializes an RRC UE notification.
func EncodeRRCEvent(s Scheme, e *RRCEvent) []byte { return appendWalk(nil, s, e) }

// DecodeRRCEvent parses an RRC UE notification.
func DecodeRRCEvent(b []byte) (*RRCEvent, error) { return decodeNew[RRCEvent](b) }

// KPMMeasurement is one named measurement in a KPM report.
type KPMMeasurement struct {
	Name  string
	Value float64
}

func (m *KPMMeasurement) walk(f walk.Fields) {
	f.Str(0, &m.Name)
	f.F64(1, &m.Value)
}

// KPMReport is an O-RAN-E2SM-KPM-style report: named performance
// metrics on a periodic timer (Appendix A.4).
type KPMReport struct {
	CellTimeMS    int64
	GranularityMS uint32
	Measurements  []KPMMeasurement
}

func (r *KPMReport) walk(f walk.Fields) {
	f.I64(0, &r.CellTimeMS)
	f.U32(1, &r.GranularityMS)
	walk.ListOf(f, 2, &r.Measurements, (*KPMMeasurement).walk)
}

// EncodeKPMReport serializes a KPM report.
func EncodeKPMReport(s Scheme, r *KPMReport) []byte { return appendWalk(nil, s, r) }

// DecodeKPMReport parses a KPM report.
func DecodeKPMReport(b []byte) (*KPMReport, error) { return decodeNew[KPMReport](b) }
