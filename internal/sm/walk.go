package sm

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/flat"
)

// Every SM message type describes itself once, beside the type, as a
// walk over its fields in wire order; there is no hand-written codec.
// Four walkers interpret a walk: PER and flat writers and readers. A
// walker moves each field out of the message or into it through the same
// pointer, so one walk is the encoder and the decoder in both schemes.
// The walkers keep their scratch, pooled or, in the per-TTI reporter of
// the MAC, RLC and PDCP SMs, held by the reporter, so an encode into a
// warm buffer allocates nothing.
//
// slot is a field's place in its flat table, which is as wide as the
// highest slot its walk names; PER ignores it.
type fields interface {
	u8(slot int, v *uint8)
	u16(slot int, v *uint16)
	u32(slot int, v *uint32)
	// u64 and i64 are PER unconstrained integers, a length and the
	// fewest octets; flat stores eight bytes.
	u64(slot int, v *uint64)
	i64(slot int, v *int64)
	f64(slot int, v *float64)
	bool(slot int, v *bool)
	str(slot int, v *string)
	// octets is an octet string; empty decodes as nil. The flat writer
	// leaves a nil one out of the table.
	octets(slot int, v *[]byte)
	// list opens a list of n tables in slot and returns its length: n
	// when writing, the count on the wire when reading. item opens the
	// i-th table; end closes whatever list or item was opened last.
	list(slot, n int) int
	item(i int)
	end()
}

// message is an SM payload that describes itself as a field walk.
type message interface{ walk(f fields) }

// listOf walks the list of tables in slot, each element by its own walk.
func listOf[T any, P interface {
	*T
	message
}](f fields, slot int, s *[]T) {
	n := f.list(slot, len(*s))
	if p, ok := f.(*perReader); ok {
		n = p.fit(n, unsafe.Sizeof(*new(T)))
	}
	if n != len(*s) {
		*s = make([]T, n)
	}
	for i := range *s {
		f.item(i)
		P(&(*s)[i]).walk(f)
		f.end()
	}
	f.end()
}

// walkers holds one of each walker with its scratch. Passed as fields a
// walker escapes; a pooled one costs no allocation, so an encode
// allocates its result and nothing else.
type walkers struct {
	pw perWriter
	pr perReader
	fw flatWriter
	fr flatReader
}

var walkerPool = sync.Pool{New: func() any { return new(walkers) }}

// appendWalk appends m, encoded in scheme s behind its scheme byte, to
// dst (which may be nil), through pooled walkers.
func appendWalk(dst []byte, s Scheme, m message) []byte {
	ws := walkerPool.Get().(*walkers)
	defer walkerPool.Put(ws)
	return ws.append(dst, s, m)
}

// append appends m, encoded in scheme s behind its scheme byte, to dst.
func (ws *walkers) append(dst []byte, s Scheme, m message) []byte {
	if s == SchemeFB {
		return ws.fw.append(dst, m)
	}
	return ws.pw.append(dst, m)
}

// decodeNew decodes the payload b into a new T; nil on error.
func decodeNew[T any, P interface {
	*T
	message
}](b []byte) (*T, error) {
	s, body, err := schemeOf(b)
	if err != nil {
		return nil, err
	}
	ws := walkerPool.Get().(*walkers)
	defer walkerPool.Put(ws)
	var r interface{ decode([]byte, message) error } = &ws.pr
	if s == SchemeFB {
		r = &ws.fr
	}
	m := P(new(T))
	if err := r.decode(body, m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return m, nil
}

// perWriter is the PER encoder of a field walk, into reused scratch.
type perWriter struct{ w asn1per.Writer }

func (p *perWriter) append(dst []byte, m message) []byte {
	p.w.Reset()
	p.w.WriteBits(uint64(SchemeASN), 8)
	m.walk(p)
	return append(dst, p.w.Bytes()...)
}

func (p *perWriter) u8(_ int, v *uint8)      { p.w.WriteBits(uint64(*v), 8) }
func (p *perWriter) u16(_ int, v *uint16)    { p.w.WriteBits(uint64(*v), 16) }
func (p *perWriter) u32(_ int, v *uint32)    { p.w.WriteBits(uint64(*v), 32) }
func (p *perWriter) u64(_ int, v *uint64)    { p.w.WriteUint(*v) }
func (p *perWriter) i64(_ int, v *int64)     { p.w.WriteInt(*v) }
func (p *perWriter) f64(_ int, v *float64)   { p.w.WriteFloat(*v) }
func (p *perWriter) bool(_ int, v *bool)     { p.w.WriteBool(*v) }
func (p *perWriter) str(_ int, v *string)    { p.w.WriteString(*v) }
func (p *perWriter) octets(_ int, v *[]byte) { p.w.WriteOctets(*v) }
func (p *perWriter) list(_, n int) int       { p.w.WriteLength(n); return n }
func (p *perWriter) item(int)                {}
func (p *perWriter) end()                    {}

// perReader is the PER decoder of a field walk. Its error is sticky:
// after the first failure every read is a no-op and every list empty.
type perReader struct {
	r   asn1per.Reader
	err error
}

func (p *perReader) decode(body []byte, m message) error {
	p.r.Reset(body)
	m.walk(p)
	err := p.err
	*p = perReader{} // pin neither the payload nor the error in the pool
	return err
}

// read runs one read of the stream into v unless an earlier one failed.
func read[T any](p *perReader, v *T, f func(*asn1per.Reader) (T, error)) {
	if p.err == nil {
		*v, p.err = f(&p.r)
	}
}

func (p *perReader) bits(n int) (v uint64) {
	read(p, &v, func(r *asn1per.Reader) (uint64, error) { return r.ReadBits(n) })
	return v
}

func (p *perReader) u8(_ int, v *uint8)      { *v = uint8(p.bits(8)) }
func (p *perReader) u16(_ int, v *uint16)    { *v = uint16(p.bits(16)) }
func (p *perReader) u32(_ int, v *uint32)    { *v = uint32(p.bits(32)) }
func (p *perReader) u64(_ int, v *uint64)    { read(p, v, (*asn1per.Reader).ReadUint) }
func (p *perReader) i64(_ int, v *int64)     { read(p, v, (*asn1per.Reader).ReadInt) }
func (p *perReader) f64(_ int, v *float64)   { read(p, v, (*asn1per.Reader).ReadFloat) }
func (p *perReader) bool(_ int, v *bool)     { read(p, v, (*asn1per.Reader).ReadBool) }
func (p *perReader) str(_ int, v *string)    { read(p, v, (*asn1per.Reader).ReadString) }
func (p *perReader) octets(_ int, v *[]byte) { read(p, v, (*asn1per.Reader).ReadOctets) }
func (p *perReader) list(int, int) (n int)   { read(p, &n, (*asn1per.Reader).ReadCount); return n }
func (p *perReader) item(int)                {}
func (p *perReader) end()                    {}

// maxListBytesPerByte bounds what a PER list takes in memory per input
// byte left. ReadCount allows one element per byte left, but an element
// can take far more memory than that: an RLC report entry takes 80
// bytes. No list comes near the bound (no SM list element takes more
// than 8 bytes of memory per input byte the reader takes for it: an RLC
// entry, 80 from 11), so a count past it cannot be met by the input.
const maxListBytesPerByte = 32

// fit returns the count n of a list of elements of size bytes, or fails
// the decode as truncated when they would outgrow maxListBytesPerByte.
func (p *perReader) fit(n int, size uintptr) int {
	if p.err == nil && uint64(n)*uint64(size) > maxListBytesPerByte*uint64(p.r.Remaining()) {
		p.err = asn1per.ErrTruncated
		return 0
	}
	return n
}

// flatWriter is the flat encoder of a field walk. A flat.Builder builds
// one table at a time, and every string, vector and sub-table a table
// refers to must exist before the table starts. So the writer creates
// out-of-line values as the walk meets them, and parks the slots of
// every open table on a stack until the table ends. EndTable lays slots
// out by index, so the order they are parked in changes no byte.
type flatWriter struct {
	b      flat.Builder
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

func (w *flatWriter) append(dst []byte, m message) []byte {
	w.b.Reset()
	w.slots, w.refs = w.slots[:0], w.refs[:0]
	w.frames = append(w.frames[:0], flatFrame{})
	m.walk(w)
	w.b.Finish(w.table(w.frames[0]))
	body := w.b.Bytes()
	return append(append(slices.Grow(dst, 1+len(body)), byte(SchemeFB)), body...)
}

// put parks a slot of size 0 (none: it only widens the table), 1, 4 or
// 8 bytes in the innermost table.
func (w *flatWriter) put(slot int, size uint8, v uint64) {
	f := &w.frames[len(w.frames)-1]
	f.width = max(f.width, slot+1)
	w.slots = append(w.slots, parkedSlot{slot, size, v})
}

// table builds frame f's parked slots into a table.
func (w *flatWriter) table(f flatFrame) uint32 {
	w.b.StartTable(f.width)
	for _, s := range w.slots[f.mark:] {
		switch s.size {
		case 1:
			w.b.AddUint8(s.slot, uint8(s.val))
		case 4:
			w.b.AddUint32(s.slot, uint32(s.val))
		case 8:
			w.b.AddUint64(s.slot, s.val)
		}
	}
	w.slots = w.slots[:f.mark]
	return w.b.EndTable()
}

func (w *flatWriter) u8(slot int, v *uint8)    { w.put(slot, 1, uint64(*v)) }
func (w *flatWriter) u16(slot int, v *uint16)  { w.put(slot, 4, uint64(*v)) }
func (w *flatWriter) u32(slot int, v *uint32)  { w.put(slot, 4, uint64(*v)) }
func (w *flatWriter) u64(slot int, v *uint64)  { w.put(slot, 8, *v) }
func (w *flatWriter) i64(slot int, v *int64)   { w.put(slot, 8, uint64(*v)) }
func (w *flatWriter) f64(slot int, v *float64) { w.put(slot, 8, math.Float64bits(*v)) }
func (w *flatWriter) str(slot int, v *string)  { w.put(slot, 4, uint64(w.b.CreateString(*v))) }
func (w *flatWriter) item(int)                 { w.frames = append(w.frames, flatFrame{mark: len(w.slots)}) }

func (w *flatWriter) bool(slot int, v *bool) {
	var b uint64
	if *v {
		b = 1
	}
	w.put(slot, 1, b)
}

func (w *flatWriter) octets(slot int, v *[]byte) {
	if *v == nil {
		w.put(slot, 0, 0)
		return
	}
	w.put(slot, 4, uint64(w.b.CreateByteVector(*v)))
}

func (w *flatWriter) list(slot, n int) int {
	w.frames = append(w.frames, flatFrame{list: true, slot: slot, mark: len(w.refs)})
	return n
}

func (w *flatWriter) end() {
	f := w.frames[len(w.frames)-1]
	w.frames = w.frames[:len(w.frames)-1]
	if !f.list {
		w.refs = append(w.refs, w.table(f))
		return
	}
	ref := w.b.CreateRefVector(w.refs[f.mark:])
	w.refs = w.refs[:f.mark]
	w.put(f.slot, 4, uint64(ref))
}

// flatReader is the flat decoder of a field walk: a stack of the tables
// being read, each with the slot of the list vector it is open on. left
// is what the body can still hold of the strings and octets read: none
// share bytes, so copying more than the body holds means a corrupt buffer.
type flatReader struct {
	frames []flatRead
	left   int
	err    error
}

type flatRead struct {
	tab  flat.Table
	slot int
}

func (r *flatReader) decode(body []byte, m message) error {
	tab, err := flat.GetRoot(body)
	if err != nil {
		return err
	}
	r.frames = append(r.frames[:0], flatRead{tab: tab})
	r.left, r.err = len(body), nil
	m.walk(r)
	clear(r.frames[:cap(r.frames)]) // do not pin the payload in the pool
	return r.err
}

// bytes returns the octets in slot, or nil once the octets read outgrow
// the body.
func (r *flatReader) bytes(slot int) []byte {
	b := r.top().Bytes(slot)
	if r.left -= len(b); r.left < 0 {
		r.err = flat.ErrCorrupt
		return nil
	}
	return b
}

func (r *flatReader) top() flat.Table { return r.frames[len(r.frames)-1].tab }

func (r *flatReader) u8(slot int, v *uint8)    { *v = r.top().Uint8(slot) }
func (r *flatReader) u16(slot int, v *uint16)  { *v = uint16(r.top().Uint32(slot)) }
func (r *flatReader) u32(slot int, v *uint32)  { *v = r.top().Uint32(slot) }
func (r *flatReader) u64(slot int, v *uint64)  { *v = r.top().Uint64(slot) }
func (r *flatReader) i64(slot int, v *int64)   { *v = r.top().Int64(slot) }
func (r *flatReader) f64(slot int, v *float64) { *v = r.top().Float64(slot) }
func (r *flatReader) bool(slot int, v *bool)   { *v = r.top().Bool(slot) }
func (r *flatReader) str(slot int, v *string)  { *v = string(r.bytes(slot)) }
func (r *flatReader) end()                     { r.frames = r.frames[:len(r.frames)-1] }

func (r *flatReader) octets(slot int, v *[]byte) {
	*v = nil
	if b := r.bytes(slot); len(b) > 0 {
		*v = append([]byte(nil), b...)
	}
}

func (r *flatReader) list(slot, _ int) int {
	t := r.top()
	r.frames = append(r.frames, flatRead{tab: t, slot: slot})
	return t.VectorLen(slot)
}

func (r *flatReader) item(i int) {
	l := r.frames[len(r.frames)-1]
	r.frames = append(r.frames, flatRead{tab: l.tab.RefVectorAt(l.slot, i)})
}
