package flat

import (
	"encoding/binary"
	"math"
)

// Table is a zero-copy view over a table inside a flat buffer. Field
// accessors read directly from the underlying bytes; absent fields return
// the type's zero value, mirroring FlatBuffers defaults. All accessors are
// bounds-checked so that corrupt or truncated buffers yield zero values
// rather than panics.
type Table struct {
	buf []byte
	pos uint32
}

// GetRoot returns the root table of buf.
func GetRoot(buf []byte) (Table, error) {
	if len(buf) < headerSize {
		return Table{}, ErrCorrupt
	}
	root := binary.LittleEndian.Uint32(buf)
	if int(root)+4 > len(buf) || root < headerSize {
		return Table{}, ErrCorrupt
	}
	return Table{buf: buf, pos: root}, nil
}

// Valid reports whether the table view is non-empty.
func (t Table) Valid() bool { return t.buf != nil }

// fieldPos resolves slot i via the vtable; returns 0 when absent/corrupt.
func (t Table) fieldPos(i int) uint32 {
	if t.buf == nil || int(t.pos)+4 > len(t.buf) {
		return 0
	}
	vt := binary.LittleEndian.Uint32(t.buf[t.pos:])
	if int(vt)+2 > len(t.buf) {
		return 0
	}
	n := int(binary.LittleEndian.Uint16(t.buf[vt:]))
	if i < 0 || i >= n {
		return 0
	}
	entry := int(vt) + 2 + 2*i
	if entry+2 > len(t.buf) {
		return 0
	}
	off := binary.LittleEndian.Uint16(t.buf[entry:])
	if off == 0 {
		return 0
	}
	return t.pos + uint32(off)
}

// Has reports whether slot i is present.
func (t Table) Has(i int) bool { return t.fieldPos(i) != 0 }

// Uint8 returns the u8 scalar in slot i, or 0 if absent.
func (t Table) Uint8(i int) uint8 {
	p := t.fieldPos(i)
	if p == 0 || int(p)+1 > len(t.buf) {
		return 0
	}
	return t.buf[p]
}

// Bool returns the boolean in slot i, or false if absent.
func (t Table) Bool(i int) bool { return t.Uint8(i) != 0 }

// Uint32 returns the u32 scalar in slot i, or 0 if absent.
func (t Table) Uint32(i int) uint32 {
	p := t.fieldPos(i)
	if p == 0 || int(p)+4 > len(t.buf) {
		return 0
	}
	return binary.LittleEndian.Uint32(t.buf[p:])
}

// Uint64 returns the u64 scalar in slot i, or 0 if absent.
func (t Table) Uint64(i int) uint64 {
	p := t.fieldPos(i)
	if p == 0 || int(p)+8 > len(t.buf) {
		return 0
	}
	return binary.LittleEndian.Uint64(t.buf[p:])
}

// Int64 returns the signed scalar in slot i, or 0 if absent.
func (t Table) Int64(i int) int64 { return int64(t.Uint64(i)) }

// Float64 returns the f64 scalar in slot i, or 0 if absent.
func (t Table) Float64(i int) float64 { return math.Float64frombits(t.Uint64(i)) }

// ref returns the out-of-line position stored in slot i, or 0.
func (t Table) ref(i int) uint32 {
	p := t.fieldPos(i)
	if p == 0 || int(p)+4 > len(t.buf) {
		return 0
	}
	r := binary.LittleEndian.Uint32(t.buf[p:])
	if int(r)+4 > len(t.buf) || r < headerSize {
		return 0
	}
	return r
}

// Bytes returns the byte vector in slot i without copying, or nil if
// absent. The result aliases the buffer.
func (t Table) Bytes(i int) []byte {
	r := t.ref(i)
	if r == 0 {
		return nil
	}
	n := binary.LittleEndian.Uint32(t.buf[r:])
	start := int(r) + 4
	end := start + int(n)
	if end > len(t.buf) || end < start {
		return nil
	}
	return t.buf[start:end:end]
}

// String returns the string in slot i, or "". The returned string copies
// the bytes (Go strings are immutable); use Bytes for zero-copy access.
func (t Table) String(i int) string { return string(t.Bytes(i)) }

// SubTable returns the sub-table referenced by slot i. The result's
// Valid method reports false when the slot is absent.
func (t Table) SubTable(i int) Table {
	r := t.ref(i)
	if r == 0 {
		return Table{}
	}
	return Table{buf: t.buf, pos: r}
}

// VectorLen returns the element count of the vector in slot i, or 0. A
// count whose elements cannot fit in the rest of the buffer is corrupt
// and reads as 0 too: every vector VectorLen is asked about holds refs
// or 8-byte scalars, at least 4 bytes an element, so a decoder may size
// a slice by the result before reading any element.
func (t Table) VectorLen(i int) int {
	r := t.ref(i)
	if r == 0 {
		return 0
	}
	n := binary.LittleEndian.Uint32(t.buf[r:])
	if uint64(n)*4 > uint64(len(t.buf)-int(r)-4) {
		return 0
	}
	return int(n)
}

// RefVectorAt returns element j of the reference vector in slot i as a
// Table view. Invalid indices return an invalid Table.
func (t Table) RefVectorAt(i, j int) Table {
	r := t.ref(i)
	if r == 0 || j < 0 {
		return Table{}
	}
	n := int(binary.LittleEndian.Uint32(t.buf[r:]))
	if j >= n {
		return Table{}
	}
	ep := int(r) + 4 + 4*j
	if ep+4 > len(t.buf) {
		return Table{}
	}
	sub := binary.LittleEndian.Uint32(t.buf[ep:])
	if int(sub)+4 > len(t.buf) || sub < headerSize {
		return Table{}
	}
	return Table{buf: t.buf, pos: sub}
}

// BytesVectorAt returns element j of the reference vector in slot i
// interpreted as a byte vector (e.g. a vector of strings), or nil.
func (t Table) BytesVectorAt(i, j int) []byte {
	r := t.ref(i)
	if r == 0 || j < 0 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(t.buf[r:]))
	if j >= n {
		return nil
	}
	ep := int(r) + 4 + 4*j
	if ep+4 > len(t.buf) {
		return nil
	}
	sub := binary.LittleEndian.Uint32(t.buf[ep:])
	if int(sub)+4 > len(t.buf) || sub < headerSize {
		return nil
	}
	ln := binary.LittleEndian.Uint32(t.buf[sub:])
	start := int(sub) + 4
	end := start + int(ln)
	if end > len(t.buf) || end < start {
		return nil
	}
	return t.buf[start:end:end]
}

// Uint64VectorAt returns element j of the u64 vector in slot i, or 0.
func (t Table) Uint64VectorAt(i, j int) uint64 {
	r := t.ref(i)
	if r == 0 || j < 0 {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(t.buf[r:]))
	if j >= n {
		return 0
	}
	ep := int(r) + 4 + 8*j
	if ep+8 > len(t.buf) {
		return 0
	}
	return binary.LittleEndian.Uint64(t.buf[ep:])
}

// Float64VectorAt returns element j of the f64 vector in slot i, or 0.
func (t Table) Float64VectorAt(i, j int) float64 {
	return math.Float64frombits(t.Uint64VectorAt(i, j))
}
