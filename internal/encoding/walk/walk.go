// Package walk is the field-walk codec under E2AP and the service
// models. A message type describes itself once, beside the type, as a
// walk over its fields in wire order; there is no hand-written codec.
// Four walkers interpret a walk: the PER writer and reader over asn1per
// and the flat writer and reader over flat. A walker moves each field
// out of the message (writers) or into it (readers) through the same
// pointer, so one walk is the encoder and the decoder of its type in
// both schemes.
//
// The walkers here know the base field kinds. A protocol with kinds of
// its own (E2AP's enumerations, causes and node IDs) embeds them by
// value in walkers of its own that add those kinds, and its walks take
// an interface that embeds Fields. The walkers keep their scratch, so a
// walk with warm walkers allocates only what it decodes.
//
// slot is a field's place in its flat table, which is as wide as the
// highest slot its walk names; PER ignores it: it is a bit stream in
// walk order.
package walk

import (
	"errors"
	"math"
	"unsafe"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/flat"
)

// Fields is what a walk hands its fields to.
type Fields interface {
	U8(slot int, v *uint8)
	U16(slot int, v *uint16)
	U32(slot int, v *uint32)
	// U64 and I64 are PER unconstrained integers, a length and the
	// fewest octets; flat stores eight bytes.
	U64(slot int, v *uint64)
	I64(slot int, v *int64)
	F64(slot int, v *float64)
	// Bool is one PER bit; flat stores a u8, set even when false.
	Bool(slot int, v *bool)
	Str(slot int, v *string)
	// Octets is an octet string; empty decodes as nil. The flat writer
	// leaves a nil one out of the table.
	Octets(slot int, v *[]byte)
	// List opens a list of n tables in slot, of elements that take size
	// bytes of memory each, and returns its length: n when writing, the
	// count on the wire when reading. Item opens the i-th table; End
	// closes whatever list or item was opened last.
	List(slot, n int, size uintptr) int
	Item(i int)
	End()
}

// ListOf walks the list of tables in slot, each element by walk.
func ListOf[F Fields, T any](f F, slot int, s *[]T, walk func(*T, F)) {
	// A method called on f would convert it to Fields on every call.
	l := Fields(f)
	if n := l.List(slot, len(*s), unsafe.Sizeof(*new(T))); n != len(*s) {
		*s = make([]T, n)
	}
	for i := range *s {
		l.Item(i)
		walk(&(*s)[i], f)
		l.End()
	}
	l.End()
}

// PERWriter is the PER encoder of a field walk, into W.
type PERWriter struct{ W *asn1per.Writer }

func (p *PERWriter) U8(_ int, v *uint8)           { p.W.WriteBits(uint64(*v), 8) }
func (p *PERWriter) U16(_ int, v *uint16)         { p.W.WriteBits(uint64(*v), 16) }
func (p *PERWriter) U32(_ int, v *uint32)         { p.W.WriteBits(uint64(*v), 32) }
func (p *PERWriter) U64(_ int, v *uint64)         { p.W.WriteUint(*v) }
func (p *PERWriter) I64(_ int, v *int64)          { p.W.WriteInt(*v) }
func (p *PERWriter) F64(_ int, v *float64)        { p.W.WriteFloat(*v) }
func (p *PERWriter) Bool(_ int, v *bool)          { p.W.WriteBool(*v) }
func (p *PERWriter) Str(_ int, v *string)         { p.W.WriteString(*v) }
func (p *PERWriter) Octets(_ int, v *[]byte)      { p.W.WriteOctets(*v) }
func (p *PERWriter) List(_, n int, _ uintptr) int { p.W.WriteLength(n); return n }
func (*PERWriter) Item(int)                       {}
func (*PERWriter) End()                           {}

// PERReader is the PER decoder of a field walk over R. Its error is
// sticky: after the first failure every read is a no-op and every list
// empty, so a bad message costs no more than its own length.
type PERReader struct {
	R   asn1per.Reader
	err error
}

// Fail records err as the walk's error unless an earlier read failed.
func (p *PERReader) Fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// Done ends a walk: it returns the walk's first error and clears it.
func (p *PERReader) Done() error {
	err := p.err
	p.err = nil
	return err
}

// read runs one read of the stream into v unless an earlier one failed.
func read[T any](p *PERReader, v *T, f func(*asn1per.Reader) (T, error)) {
	if p.err == nil {
		*v, p.err = f(&p.R)
	}
}

// Bits reads an n-bit unsigned integer.
func (p *PERReader) Bits(n int) (v uint64) {
	read(p, &v, func(r *asn1per.Reader) (uint64, error) { return r.ReadBits(n) })
	return v
}

func (p *PERReader) U8(_ int, v *uint8)      { *v = uint8(p.Bits(8)) }
func (p *PERReader) U16(_ int, v *uint16)    { *v = uint16(p.Bits(16)) }
func (p *PERReader) U32(_ int, v *uint32)    { *v = uint32(p.Bits(32)) }
func (p *PERReader) U64(_ int, v *uint64)    { read(p, v, (*asn1per.Reader).ReadUint) }
func (p *PERReader) I64(_ int, v *int64)     { read(p, v, (*asn1per.Reader).ReadInt) }
func (p *PERReader) F64(_ int, v *float64)   { read(p, v, (*asn1per.Reader).ReadFloat) }
func (p *PERReader) Bool(_ int, v *bool)     { read(p, v, (*asn1per.Reader).ReadBool) }
func (p *PERReader) Str(_ int, v *string)    { read(p, v, (*asn1per.Reader).ReadString) }
func (p *PERReader) Octets(_ int, v *[]byte) { read(p, v, (*asn1per.Reader).ReadOctets) }
func (*PERReader) Item(int)                  {}
func (*PERReader) End()                      {}

// maxListBytesPerByte bounds what a PER list takes in memory per input
// byte left. ReadCount allows one element per byte left, but an element
// can take far more memory than that: an E2AP component takes 72 bytes.
// No list comes near the bound (no element takes more than 18 bytes of
// memory per input byte the reader takes for it: an E2AP component, 72
// from 4; an SM RLC entry takes 80 from 11), so a count past it cannot
// be met by the input.
const maxListBytesPerByte = 32

// List reads the count of a list of elements of size bytes, and fails
// the walk as truncated when they would outgrow maxListBytesPerByte.
func (p *PERReader) List(_, _ int, size uintptr) (n int) {
	read(p, &n, (*asn1per.Reader).ReadCount)
	if p.err == nil && uint64(n)*uint64(size) > maxListBytesPerByte*uint64(p.R.Remaining()) {
		p.err = asn1per.ErrTruncated
		return 0
	}
	return n
}

// FlatWriter is the flat encoder of a field walk, into B. A
// flat.Builder builds one table at a time, and every string, vector and
// sub-table a table refers to must exist before the table starts. So
// the writer creates out-of-line values as the walk meets them, and
// parks the slots of every open table on a stack until the table ends.
// EndTable lays slots out by index, so the order they are parked in
// changes no byte.
type FlatWriter struct {
	B      *flat.Builder
	slots  []parkedSlot // slots of every open table, innermost last
	frames []flatFrame  // open tables and lists, innermost last
	refs   []uint32     // finished items of every open list
}

// parkedSlot is a slot of an open table. A reference is a u32 in the
// table and a float a u64, so they park as one.
type parkedSlot struct {
	slot int
	size uint8
	val  uint64
}

// flatFrame is an open table (mark: its first parked slot; width: one
// past the highest slot its walk named) or list (mark: its first ref;
// slot: its slot in the enclosing table).
type flatFrame struct {
	list       bool
	slot, mark int
	width      int
}

// Begin starts a walk into b, whose root table is at least width slots
// wide.
func (w *FlatWriter) Begin(b *flat.Builder, width int) {
	w.B = b
	w.slots, w.refs = w.slots[:0], w.refs[:0]
	w.frames = append(w.frames[:0], flatFrame{width: width})
}

// Finish builds the root table and finishes the buffer.
func (w *FlatWriter) Finish() { w.B.Finish(w.table(w.frames[0])) }

// Put parks a slot of size 0 (none: it only widens the table), 1, 4 or
// 8 bytes in the innermost table.
func (w *FlatWriter) Put(slot int, size uint8, v uint64) {
	f := &w.frames[len(w.frames)-1]
	f.width = max(f.width, slot+1)
	w.slots = append(w.slots, parkedSlot{slot, size, v})
}

// Ref adds a finished reference to the innermost open list.
func (w *FlatWriter) Ref(ref uint32) { w.refs = append(w.refs, ref) }

// table builds frame f's parked slots into a table.
func (w *FlatWriter) table(f flatFrame) uint32 {
	w.B.StartTable(f.width)
	for _, s := range w.slots[f.mark:] {
		switch s.size {
		case 1:
			w.B.AddUint8(s.slot, uint8(s.val))
		case 4:
			w.B.AddUint32(s.slot, uint32(s.val))
		case 8:
			w.B.AddUint64(s.slot, s.val)
		}
	}
	w.slots = w.slots[:f.mark]
	return w.B.EndTable()
}

func (w *FlatWriter) U8(slot int, v *uint8)    { w.Put(slot, 1, uint64(*v)) }
func (w *FlatWriter) U16(slot int, v *uint16)  { w.Put(slot, 4, uint64(*v)) }
func (w *FlatWriter) U32(slot int, v *uint32)  { w.Put(slot, 4, uint64(*v)) }
func (w *FlatWriter) U64(slot int, v *uint64)  { w.Put(slot, 8, *v) }
func (w *FlatWriter) I64(slot int, v *int64)   { w.Put(slot, 8, uint64(*v)) }
func (w *FlatWriter) F64(slot int, v *float64) { w.Put(slot, 8, math.Float64bits(*v)) }
func (w *FlatWriter) Str(slot int, v *string)  { w.Put(slot, 4, uint64(w.B.CreateString(*v))) }
func (w *FlatWriter) Item(int)                 { w.frames = append(w.frames, flatFrame{mark: len(w.slots)}) }

func (w *FlatWriter) Bool(slot int, v *bool) {
	var b uint64
	if *v {
		b = 1
	}
	w.Put(slot, 1, b)
}

func (w *FlatWriter) Octets(slot int, v *[]byte) {
	if *v == nil {
		w.Put(slot, 0, 0)
		return
	}
	w.Put(slot, 4, uint64(w.B.CreateByteVector(*v)))
}

func (w *FlatWriter) List(slot, n int, _ uintptr) int {
	w.frames = append(w.frames, flatFrame{list: true, slot: slot, mark: len(w.refs)})
	return n
}

func (w *FlatWriter) End() {
	f := w.frames[len(w.frames)-1]
	w.frames = w.frames[:len(w.frames)-1]
	if !f.list {
		w.Ref(w.table(f))
		return
	}
	ref := w.B.CreateRefVector(w.refs[f.mark:])
	w.refs = w.refs[:f.mark]
	w.Put(f.slot, 4, uint64(ref))
}

// FlatReader is the flat decoder of a field walk: a stack of the tables
// being read, each with the slot of the list vector it is open on. left
// is what the message can still hold of the strings and octets copied
// out of list items. Those are the reads a message can repeat, since
// every item can refer to one string; so copying more than the message
// holds means a hostile buffer, and the walk fails. A read outside a
// list happens once per slot and is not counted.
type FlatReader struct {
	frames []flatRead
	left   int
	err    error
}

type flatRead struct {
	tab  flat.Table
	slot int
}

// errCopyBudget reports a flat message whose copies outgrow it.
var errCopyBudget = errors.New("strings copied outgrow the message")

// Begin starts a walk over tab, the root table of a size-byte message.
func (r *FlatReader) Begin(tab flat.Table, size int) {
	r.frames = append(r.frames[:0], flatRead{tab: tab})
	r.left, r.err = size, nil
}

// Done ends a walk: it returns the walk's error and drops the tables,
// so that the reader does not pin the message.
func (r *FlatReader) Done() error {
	clear(r.frames[:cap(r.frames)])
	return r.err
}

// Top is the innermost open table.
func (r *FlatReader) Top() flat.Table { return r.frames[len(r.frames)-1].tab }

// Charge counts a copy of n bytes against the message, and fails the
// walk once the copies outgrow it.
func (r *FlatReader) Charge(n int) bool {
	if r.left -= n; r.left < 0 {
		r.err = errCopyBudget
		return false
	}
	return true
}

// bytes returns the octets in slot, or nil once the copies made in list
// items outgrow the message.
func (r *FlatReader) bytes(slot int) []byte {
	b := r.Top().Bytes(slot)
	if len(r.frames) > 1 && !r.Charge(len(b)) {
		return nil
	}
	return b
}

func (r *FlatReader) U8(slot int, v *uint8)    { *v = r.Top().Uint8(slot) }
func (r *FlatReader) U16(slot int, v *uint16)  { *v = uint16(r.Top().Uint32(slot)) }
func (r *FlatReader) U32(slot int, v *uint32)  { *v = r.Top().Uint32(slot) }
func (r *FlatReader) U64(slot int, v *uint64)  { *v = r.Top().Uint64(slot) }
func (r *FlatReader) I64(slot int, v *int64)   { *v = r.Top().Int64(slot) }
func (r *FlatReader) F64(slot int, v *float64) { *v = r.Top().Float64(slot) }
func (r *FlatReader) Bool(slot int, v *bool)   { *v = r.Top().Bool(slot) }
func (r *FlatReader) Str(slot int, v *string)  { *v = string(r.bytes(slot)) }
func (r *FlatReader) End()                     { r.frames = r.frames[:len(r.frames)-1] }

func (r *FlatReader) Octets(slot int, v *[]byte) {
	*v = nil
	if b := r.bytes(slot); len(b) > 0 {
		*v = append([]byte(nil), b...)
	}
}

func (r *FlatReader) List(slot, _ int, _ uintptr) int {
	t := r.Top()
	r.frames = append(r.frames, flatRead{tab: t, slot: slot})
	return t.VectorLen(slot)
}

func (r *FlatReader) Item(i int) {
	l := r.frames[len(r.frames)-1]
	r.frames = append(r.frames, flatRead{tab: l.tab.RefVectorAt(l.slot, i)})
}
