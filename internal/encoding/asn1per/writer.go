// Package asn1per implements an aligned-PER-style bit-oriented codec.
//
// It reproduces the properties of ASN.1 PER that matter for the FlexRIC
// evaluation: a compact bit-packed wire format with constrained integers,
// length determinants and optional-field bitmaps, at the cost of an explicit
// encode and decode pass over every field. The grammar is not ITU X.691 —
// it is a faithful re-creation of PER's encoding *mechanics* (constrained
// whole numbers, semi-constrained lengths, octet alignment rules) used by
// the E2AP and service-model codecs in this repository.
package asn1per

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Common codec errors.
var (
	// ErrTruncated reports that the input ended before a complete value
	// could be decoded.
	ErrTruncated = errors.New("asn1per: truncated input")
	// ErrRange reports a value outside its PER constraint.
	ErrRange = errors.New("asn1per: value out of constrained range")
	// ErrTooLong reports a length exceeding the codec's hard cap.
	ErrTooLong = errors.New("asn1per: length exceeds maximum")
)

// MaxLength caps every length determinant accepted by the decoder. It
// bounds allocations when decoding untrusted input.
const MaxLength = 1<<24 - 1

// Writer packs values into a bit stream, most significant bit first,
// mirroring PER's canonical bit order. The zero value is ready to use.
// Writers may be reused via Reset to avoid allocation in hot paths.
type Writer struct {
	buf  []byte
	nbit uint8 // bits used in the last byte, 0 means byte-aligned
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Reset clears the writer, retaining the underlying buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// ResetAppend prepares the writer to append a new byte-aligned bit
// stream after the existing contents of dst (which may be nil). The
// writer takes ownership of dst until the stream is finished and read
// via Bytes (which returns dst's contents followed by the encoding);
// call ResetAppend(nil) afterwards to drop the reference. Existing
// bytes of dst are never modified — the encoder only appends.
func (w *Writer) ResetAppend(dst []byte) {
	w.buf = dst
	w.nbit = 0
}

// Grow ensures room for n more bytes without another allocation.
// Encoders that can bound their output from their input call it once up
// front, so a cold buffer grows once instead of doubling its way up.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Bytes returns the encoded bit stream padded to a whole number of bytes.
// The returned slice aliases the writer's buffer and is valid until the
// next mutation.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current encoded length in bytes (including a partially
// filled trailing byte).
func (w *Writer) Len() int { return len(w.buf) }

// BitLen returns the number of bits written.
func (w *Writer) BitLen() int {
	if w.nbit == 0 {
		return len(w.buf) * 8
	}
	return (len(w.buf)-1)*8 + int(w.nbit)
}

// Align pads with zero bits to the next octet boundary, as aligned PER
// requires before octet-based fields.
func (w *Writer) Align() { w.nbit = 0 }

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
		w.nbit = 8
	}
	if b {
		w.buf[len(w.buf)-1] |= 1 << (w.nbit - 1)
	}
	w.nbit--
}

// WriteBits appends the low n bits of v, most significant bit first.
// n must be in [0,64].
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("asn1per: WriteBits n=%d", n))
	}
	if w.nbit == 0 && n&7 == 0 {
		// Byte-aligned whole octets: no bit splicing needed.
		for s := n - 8; s >= 0; s -= 8 {
			w.buf = append(w.buf, byte(v>>uint(s)))
		}
		return
	}
	for n > 0 {
		if w.nbit == 0 {
			w.buf = append(w.buf, 0)
			w.nbit = 8
		}
		take := int(w.nbit)
		if take > n {
			take = n
		}
		chunk := byte(v >> uint(n-take) & (1<<uint(take) - 1))
		w.buf[len(w.buf)-1] |= chunk << (w.nbit - uint8(take))
		w.nbit -= uint8(take)
		n -= take
	}
}

// WriteBool encodes a BOOLEAN as one bit.
func (w *Writer) WriteBool(b bool) { w.WriteBit(b) }

// bitsFor returns the number of bits needed to represent values in
// [0, span]; span==0 needs zero bits.
func bitsFor(span uint64) int {
	if span == 0 {
		return 0
	}
	return 64 - bits.LeadingZeros64(span)
}

// WriteConstrainedInt encodes v with PER constrained-whole-number rules
// for the range [lo, hi]. Values outside the range return ErrRange.
func (w *Writer) WriteConstrainedInt(v, lo, hi int64) error {
	if v < lo || v > hi || hi < lo {
		return fmt.Errorf("%w: %d not in [%d,%d]", ErrRange, v, lo, hi)
	}
	span := uint64(hi - lo)
	w.WriteBits(uint64(v-lo), bitsFor(span))
	return nil
}

// WriteUint encodes an unconstrained non-negative integer as a
// length-prefixed minimal big-endian octet string, per PER's
// unconstrained-integer style.
func (w *Writer) WriteUint(v uint64) {
	n := (bitsFor(v) + 7) / 8
	if n == 0 {
		n = 1
	}
	w.WriteLength(n)
	w.Align()
	for i := n - 1; i >= 0; i-- {
		w.buf = append(w.buf, byte(v>>(8*uint(i))))
	}
}

// WriteInt encodes a signed integer using zig-zag mapping into WriteUint.
func (w *Writer) WriteInt(v int64) {
	w.WriteUint(uint64(v)<<1 ^ uint64(v>>63))
}

// WriteLength encodes a semi-constrained length determinant in the
// aligned-PER style: one octet for < 128, two octets with the top bit set
// for < 16384, and a 4-octet escape (10xxxxxx form simplified) above.
func (w *Writer) WriteLength(n int) {
	if n < 0 || n > MaxLength {
		panic(fmt.Sprintf("asn1per: length %d out of range", n))
	}
	w.Align()
	switch {
	case n < 128:
		w.buf = append(w.buf, byte(n))
	case n < 16384:
		w.buf = append(w.buf, 0x80|byte(n>>8), byte(n))
	default:
		w.buf = append(w.buf, 0xC0, byte(n>>16), byte(n>>8), byte(n))
	}
	w.nbit = 0
}

// WriteOctets encodes a length-prefixed octet string, octet-aligned.
func (w *Writer) WriteOctets(b []byte) {
	w.WriteLength(len(b))
	w.buf = append(w.buf, b...)
}

// WriteFixedOctets appends exactly len(b) octets with no length prefix
// (for fields of statically known size).
func (w *Writer) WriteFixedOctets(b []byte) {
	w.Align()
	w.buf = append(w.buf, b...)
}

// WriteString encodes a length-prefixed UTF-8 string.
func (w *Writer) WriteString(s string) {
	w.WriteLength(len(s))
	w.buf = append(w.buf, s...)
}

// WriteEnum encodes an enumeration with cardinality card as a constrained
// integer in [0, card-1].
func (w *Writer) WriteEnum(v, card int) error {
	return w.WriteConstrainedInt(int64(v), 0, int64(card-1))
}

// WriteOptionalBitmap writes n presence bits given as a bool slice, the
// PER OPTIONAL-field preamble.
func (w *Writer) WriteOptionalBitmap(present []bool) {
	for _, p := range present {
		w.WriteBit(p)
	}
}

// WriteFloat encodes an IEEE 754 binary64 value as 8 fixed octets.
// (PER REAL is baroque; E2 SMs carry measurements as scaled integers or
// doubles, and fixed binary64 keeps the round-trip exact.)
func (w *Writer) WriteFloat(f float64) {
	w.Align()
	v := floatBits(f)
	for i := 7; i >= 0; i-- {
		w.buf = append(w.buf, byte(v>>(8*uint(i))))
	}
}
