package tsdb

import (
	"fmt"
	"slices"
	"sync"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/walk"
)

// The body of a federated query leg (docs/FEDERATION.md) is the PER
// form of a field walk (package walk): a PartialLeg for a range query,
// a list of Samples for a last=K one. Each type's walk, beside the
// type, is both its encoder and its decoder; there is no hand-written
// codec. The walkers are pooled, so an encode allocates its result and
// a decode what it decodes.

// legBody is a leg answer that describes itself as a field walk.
type legBody interface{ walk(f walk.Fields) }

// perWalkers holds a PER writer and reader with their scratch.
type perWalkers struct {
	w  asn1per.Writer
	pw walk.PERWriter
	pr walk.PERReader
}

var perPool = sync.Pool{New: func() any {
	ws := new(perWalkers)
	ws.pw.W = &ws.w
	return ws
}}

func (s *Sample) walk(f walk.Fields) {
	f.I64(0, &s.TS)
	f.F64(1, &s.V)
}

// samples is a last=K answer.
type samples []Sample

func (s *samples) walk(f walk.Fields) { walk.ListOf(f, 0, (*[]Sample)(s), (*Sample).walk) }

// PER sizes bound a walk's encoding: an integer takes a length octet
// and at most eight more, a float eight octets, a list length at most
// four.
const (
	perIntMax  = 9
	perListMax = 4
	// perAggMax bounds a PartialAgg without its histogram counts: nine
	// integers (two of them the runs' Lo), five floats, two lists.
	perAggMax = 9*perIntMax + 5*8 + 2*perListMax
)

// legBound bounds the PER encoding of l, so that AppendLeg grows its
// buffer once.
func legBound(l *PartialLeg) int {
	n := perIntMax + perListMax + perAggMax + perIntMax*(len(l.Agg.Pos.N)+len(l.Agg.Neg.N))
	for i := range l.Buckets {
		a := &l.Buckets[i].Agg
		n += 2*perIntMax + perAggMax + perIntMax*(len(a.Pos.N)+len(a.Neg.N))
	}
	return n
}

// AppendLeg appends the PER body of l to dst (which may be nil) and
// returns the extended slice, grown once.
func AppendLeg(dst []byte, l *PartialLeg) []byte { return appendPER(dst, legBound(l), l) }

// DecodeLeg decodes a PER leg body. Bytes past the leg are an error.
// The leg is not validated: a caller that merges it checks it first
// (PartialAgg.Validate).
func DecodeLeg(b []byte) (PartialLeg, error) {
	var l PartialLeg
	err := decodePER(b, &l)
	return l, err
}

// AppendSamples appends the PER body of a last=K answer to dst.
func AppendSamples(dst []byte, s []Sample) []byte {
	return appendPER(dst, perListMax+len(s)*(perIntMax+8), (*samples)(&s))
}

// DecodeSamples decodes the PER body of a last=K answer. Bytes past the
// list are an error.
func DecodeSamples(b []byte) ([]Sample, error) {
	var s samples
	err := decodePER(b, &s)
	return s, err
}

// appendPER appends the PER walk of m to dst, growing it by size first.
func appendPER(dst []byte, size int, m legBody) []byte {
	ws := perPool.Get().(*perWalkers)
	defer perPool.Put(ws)
	ws.w.ResetAppend(slices.Grow(dst, size))
	m.walk(&ws.pw)
	out := ws.w.Bytes()
	ws.w.ResetAppend(nil) // do not pin the result in the pool
	return out
}

// decodePER walks b into m and fails on any byte left over.
func decodePER(b []byte, m legBody) error {
	ws := perPool.Get().(*perWalkers)
	defer perPool.Put(ws)
	ws.pr.R.Reset(b)
	m.walk(&ws.pr)
	err := ws.pr.Done()
	if n := ws.pr.R.Remaining(); err == nil && n > 0 {
		err = fmt.Errorf("%d trailing bytes", n)
	}
	ws.pr.R.Reset(nil) // do not pin the body in the pool
	if err != nil {
		return fmt.Errorf("tsdb: leg body: %w", err)
	}
	return nil
}
