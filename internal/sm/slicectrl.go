package sm

import (
	"math"

	"flexric/internal/encoding/walk"
	"flexric/internal/nvs"
)

// The slicing control SM (SC SM, §6.1.2) "abstracts the slice
// configuration ... The SM allows to configure the slice algorithm
// (setting the slice scheduler) and a list of slices with
// algorithm-specific parameters (selecting the user scheduler and
// configuring its available resources)." It is RAT-independent: the same
// messages drive 4G and 5G cells (the multi-RAT property of Fig. 15).

// SliceOp is the SC SM control operation, carried in the control header.
type SliceOp uint8

// SC SM operations.
const (
	// OpConfigureSlices installs a complete slice set.
	OpConfigureSlices SliceOp = iota + 1
	// OpAssociateUE assigns a UE to a slice.
	OpAssociateUE
	// OpDisableSlicing returns to the shared scheduler pool.
	OpDisableSlicing
)

// SliceParams describes one slice, mirroring nvs.Config in SM terms.
type SliceParams struct {
	ID        uint32
	Kind      uint8 // 0 = capacity, 1 = rate
	CapacityQ uint32
	RateRsv   float64
	RateRef   float64
	NoSharing bool
	UESched   string
}

func (p *SliceParams) walk(f walk.Fields) {
	f.U32(0, &p.ID)
	f.U8(1, &p.Kind)
	f.U32(2, &p.CapacityQ)
	f.F64(3, &p.RateRsv)
	f.F64(4, &p.RateRef)
	f.Bool(5, &p.NoSharing)
	f.Str(6, &p.UESched)
}

// capacityScale fixes the SM wire representation of capacity fractions
// (parts per million).
const capacityScale = 1_000_000

// ParamsFromNVS converts scheduler configs to SM wire parameters.
func ParamsFromNVS(cfgs []nvs.Config) []SliceParams {
	out := make([]SliceParams, len(cfgs))
	for i, c := range cfgs {
		out[i] = SliceParams{
			ID:        c.ID,
			Kind:      uint8(c.Kind),
			CapacityQ: uint32(math.Round(c.Capacity * capacityScale)),
			RateRsv:   c.RateRsv,
			RateRef:   c.RateRef,
			NoSharing: c.NoSharing,
			UESched:   c.UESched,
		}
	}
	return out
}

// ToNVS converts SM wire parameters to scheduler configs.
func ToNVS(ps []SliceParams) []nvs.Config {
	out := make([]nvs.Config, len(ps))
	for i, p := range ps {
		out[i] = nvs.Config{
			ID:        p.ID,
			Kind:      nvs.SliceKind(p.Kind),
			Capacity:  float64(p.CapacityQ) / capacityScale,
			RateRsv:   p.RateRsv,
			RateRef:   p.RateRef,
			NoSharing: p.NoSharing,
			UESched:   p.UESched,
		}
	}
	return out
}

// SliceControl is the SC SM control payload.
type SliceControl struct {
	Op SliceOp
	// Slices is the complete slice set for OpConfigureSlices.
	Slices []SliceParams
	// RNTI/SliceID are the association for OpAssociateUE.
	RNTI    uint16
	SliceID uint32
}

func (c *SliceControl) walk(f walk.Fields) {
	f.U8(0, (*uint8)(&c.Op))
	walk.ListOf(f, 1, &c.Slices, (*SliceParams).walk)
	f.U16(2, &c.RNTI)
	f.U32(3, &c.SliceID)
}

// EncodeSliceControl serializes an SC SM control payload.
func EncodeSliceControl(s Scheme, c *SliceControl) []byte { return appendWalk(nil, s, c) }

// DecodeSliceControl parses an SC SM control payload.
func DecodeSliceControl(b []byte) (*SliceControl, error) { return decodeNew[SliceControl](b) }

// SliceStatus is the SC SM report payload: the installed configuration
// plus UE associations.
type SliceStatus struct {
	Algo   string // "nvs" or "none"
	Slices []SliceParams
	UEs    []UESliceAssoc
}

// UESliceAssoc reports one UE's slice membership.
type UESliceAssoc struct {
	RNTI    uint16
	SliceID uint32
}

func (st *SliceStatus) walk(f walk.Fields) {
	f.Str(0, &st.Algo)
	walk.ListOf(f, 1, &st.Slices, (*SliceParams).walk)
	walk.ListOf(f, 2, &st.UEs, (*UESliceAssoc).walk)
}

func (u *UESliceAssoc) walk(f walk.Fields) {
	f.U16(0, &u.RNTI)
	f.U32(1, &u.SliceID)
}

// EncodeSliceStatus serializes an SC SM status report.
func EncodeSliceStatus(s Scheme, st *SliceStatus) []byte { return appendWalk(nil, s, st) }

// DecodeSliceStatus parses an SC SM status report.
func DecodeSliceStatus(b []byte) (*SliceStatus, error) { return decodeNew[SliceStatus](b) }
