package sm

import (
	"flexric/internal/encoding/walk"
	"flexric/internal/ran"
)

// The traffic control SM (TC SM, §6.1.1) abstracts per-UE flow
// configuration: queues, 5-tuple classifier filters, and pacers. Its
// three control operations are exactly the xApp's remedy sequence in the
// bufferbloat experiment: "it generates a second FIFO queue; next, it
// creates a 5-tuple filter ...; following, it loads a 5G-BDP pacer".

// TCOp is the TC SM control operation.
type TCOp uint8

// TC SM operations.
const (
	// OpAddQueue creates a FIFO queue; the outcome carries the queue ID.
	OpAddQueue TCOp = iota + 1
	// OpRemoveQueue deletes a queue.
	OpRemoveQueue
	// OpAddFilter installs a 5-tuple classifier rule.
	OpAddFilter
	// OpSetPacer selects the pacing policy.
	OpSetPacer
)

// TCControl is the TC SM control payload.
type TCControl struct {
	Op   TCOp
	RNTI uint16
	// Queue is the target for OpRemoveQueue and OpAddFilter.
	Queue uint32
	// Filter fields for OpAddFilter.
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
	MatchProto       bool
	// Pacer fields for OpSetPacer.
	Pacer         uint8
	PacerTargetMS uint32
}

// Match converts the control's filter fields to a classifier rule.
func (c *TCControl) Match() ran.TCMatch {
	return ran.TCMatch{
		SrcIP:      c.SrcIP,
		DstIP:      c.DstIP,
		SrcPort:    c.SrcPort,
		DstPort:    c.DstPort,
		Proto:      ran.Proto(c.Proto),
		MatchProto: c.MatchProto,
	}
}

func (c *TCControl) walk(f walk.Fields) {
	f.U8(0, (*uint8)(&c.Op))
	f.U16(1, &c.RNTI)
	f.U32(2, &c.Queue)
	f.U32(3, &c.SrcIP)
	f.U32(4, &c.DstIP)
	f.U16(5, &c.SrcPort)
	f.U16(6, &c.DstPort)
	f.U8(7, &c.Proto)
	f.Bool(8, &c.MatchProto)
	f.U8(9, &c.Pacer)
	f.U32(10, &c.PacerTargetMS)
}

// EncodeTCControl serializes a TC SM control payload.
func EncodeTCControl(s Scheme, c *TCControl) []byte { return appendWalk(nil, s, c) }

// DecodeTCControl parses a TC SM control payload.
func DecodeTCControl(b []byte) (*TCControl, error) { return decodeNew[TCControl](b) }

// TCOutcome is the TC SM control outcome (e.g. the queue ID returned by
// OpAddQueue).
type TCOutcome struct {
	Queue uint32
}

func (o *TCOutcome) walk(f walk.Fields) { f.U32(0, &o.Queue) }

// EncodeTCOutcome serializes a TC SM control outcome.
func EncodeTCOutcome(s Scheme, o *TCOutcome) []byte { return appendWalk(nil, s, o) }

// DecodeTCOutcome parses a TC SM control outcome.
func DecodeTCOutcome(b []byte) (*TCOutcome, error) { return decodeNew[TCOutcome](b) }

// TCQueueEntry is one queue's statistics in a TC report.
type TCQueueEntry struct {
	ID          uint32
	EnqPackets  uint64
	EnqBytes    uint64
	DeqPackets  uint64
	DeqBytes    uint64
	DropPackets uint64
	BufferBytes uint64
	BufferPkts  uint64
	SojournMS   int64
}

func (q *TCQueueEntry) walk(f walk.Fields) {
	f.U32(0, &q.ID)
	f.U64(1, &q.EnqPackets)
	f.U64(2, &q.EnqBytes)
	f.U64(3, &q.DeqPackets)
	f.U64(4, &q.DeqBytes)
	f.U64(5, &q.DropPackets)
	f.U64(6, &q.BufferBytes)
	f.U64(7, &q.BufferPkts)
	f.I64(8, &q.SojournMS)
}

// TCReport is the TC SM indication payload for one UE.
type TCReport struct {
	CellTimeMS int64
	RNTI       uint16
	Active     bool
	Pacer      uint8
	Filters    uint32
	Queues     []TCQueueEntry
}

func (r *TCReport) walk(f walk.Fields) {
	f.I64(0, &r.CellTimeMS)
	f.U16(1, &r.RNTI)
	f.Bool(2, &r.Active)
	f.U8(3, &r.Pacer)
	f.U32(4, &r.Filters)
	walk.ListOf(f, 5, &r.Queues, (*TCQueueEntry).walk)
}

// EncodeTCReport serializes a TC SM report.
func EncodeTCReport(s Scheme, r *TCReport) []byte { return appendWalk(nil, s, r) }

// DecodeTCReport parses a TC SM report.
func DecodeTCReport(b []byte) (*TCReport, error) { return decodeNew[TCReport](b) }
