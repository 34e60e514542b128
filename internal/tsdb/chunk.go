package tsdb

// chunk.go — the sealed half of a series: immutable Gorilla-style
// compressed blocks (delta-of-delta timestamps, predictive-XOR encoded
// values) produced when the write-head ring fills. The bit-level format
// is specified, with a worked example, in docs/TSDB.md; this file is
// the normative implementation and the docs must match it.
//
// Values XOR against a linear prediction (prev + prevDelta) rather
// than plain prev: SM report series are dominated by monotone counters
// (tx_bytes, tx_packets) whose constant increments flip 10–20 mantissa
// bits per sample under XOR-vs-prev but cancel to zero under
// XOR-vs-prediction, compressing to one bit per sample. Gauges and
// noisy series degrade gracefully to ordinary Gorilla behavior
// (prediction falls back to prev whenever extrapolation is not finite).
//
// A chunk is write-once: the encoder runs exactly once at seal time,
// under the series lock, and the resulting byte slice is never mutated.
// Readers decompress with a stack-allocated iterator, so concurrent
// queries over the same chunk need no synchronization beyond the series
// lock that guards the chunk chain itself.

import (
	"math"
	"math/bits"
	"sync"
)

// chunk is one sealed, immutable, compressed block of a series.
// The header fields mirror what an aggregate over the chunk's samples
// would produce (same comparison semantics as aggState.addSample), so
// retention can fold a chunk into a downsampling tier, and future
// header-only fast paths can skip decompression.
type chunk struct {
	count           int
	firstTS, lastTS int64
	min, max, sum   float64
	first, last     float64
	bits            []byte
	nbits           int
}

// sizeBytes is the compressed payload size.
func (c *chunk) sizeBytes() int { return len(c.bits) }

// --- bit-level I/O -----------------------------------------------------

// bitWriter appends MSB-first bits to a byte slice.
type bitWriter struct {
	b     []byte
	nbits int
}

// writeBits appends the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n int) {
	if n <= 0 {
		return
	}
	if n < 64 {
		v <<= 64 - uint(n) // left-align so the next bit to emit is bit 63
	}
	for n > 0 {
		off := w.nbits & 7
		if off == 0 {
			w.b = append(w.b, 0)
		}
		take := 8 - off
		if take > n {
			take = n
		}
		w.b[len(w.b)-1] |= byte(v>>56) >> uint(off)
		v <<= uint(take)
		n -= take
		w.nbits += take
	}
}

// bitReader consumes MSB-first bits from a chunk payload.
type bitReader struct {
	b     []byte
	nbits int // total valid bits
	pos   int
}

// readBits returns the next n bits as the low bits of a uint64.
// ok is false when the stream is exhausted (corrupt chunk).
func (r *bitReader) readBits(n int) (v uint64, ok bool) {
	if r.pos+n > r.nbits {
		return 0, false
	}
	for n > 0 {
		off := r.pos & 7
		avail := 8 - off
		take := avail
		if take > n {
			take = n
		}
		chunkBits := uint64(r.b[r.pos>>3]>>uint(avail-take)) & (1<<uint(take) - 1)
		v = v<<uint(take) | chunkBits
		r.pos += take
		n -= take
	}
	return v, true
}

// predictBits returns the bit pattern the value encoding XORs against:
// the linear extrapolation prev + (prev − prevPrev) when that
// arithmetic is finite, else prev itself. Working in bit patterns —
// with float arithmetic only ever applied to finite values — keeps NaN
// payloads bit-exact through encode/decode, and the fallback rule is
// deterministic so encoder and decoder always agree.
func predictBits(prevBits, prevPrevBits uint64) uint64 {
	prev := math.Float64frombits(prevBits)
	d := prev - math.Float64frombits(prevPrevBits)
	if d != 0 && !math.IsInf(d, 0) && !math.IsNaN(d) {
		if p := prev + d; !math.IsInf(p, 0) && !math.IsNaN(p) {
			return math.Float64bits(p)
		}
	}
	return prevBits
}

// --- encoder -----------------------------------------------------------

// sealScratch holds the buffers encoders write their bits into. An
// encoder borrows one at its first sample and returns it at seal, after
// copying the bits out at their exact size: the scratch never escapes
// into a chunk, and a warm scratch makes a seal two allocations (the
// chunk and its bits) however long the chunk. Pointers, so that Get and
// Put box nothing.
var sealScratch = sync.Pool{New: func() any { return new([]byte) }}

// chunkEncoder compresses a time-ordered sample stream into a chunk.
// Zero value is ready to use; call add for each sample, then seal once.
type chunkEncoder struct {
	scratch       *[]byte // borrowed from sealScratch; w.b writes into it
	w             bitWriter
	count         int
	firstTS       int64
	prevTS        int64
	prevDelta     int64
	prevVBits     uint64
	prevPrevVBits uint64
	// Previous XOR window; leading < 0 means "no window yet".
	leading, trailing int

	min, max, sum float64
	first, last   float64
}

// add appends one sample. Samples must arrive in the series' ring
// order (the same order queries iterate), which is non-decreasing TS
// for well-behaved writers — but any int64 TS sequence round-trips.
func (e *chunkEncoder) add(ts int64, v float64) {
	vb := math.Float64bits(v)
	if e.scratch == nil {
		e.scratch = sealScratch.Get().(*[]byte)
		e.w.b = (*e.scratch)[:0]
	}
	if e.count == 0 {
		// Sample 0: raw 64-bit timestamp, raw 64-bit value bits. The
		// stream is self-contained; the header duplicates firstTS for
		// O(1) range checks.
		e.w.writeBits(uint64(ts), 64)
		e.w.writeBits(vb, 64)
		e.firstTS, e.prevTS = ts, ts
		e.prevVBits, e.prevPrevVBits = vb, vb
		e.leading = -1
		e.min, e.max, e.first = v, v, v
	} else {
		// Timestamp: delta-of-delta with Gorilla-style size buckets.
		delta := ts - e.prevTS
		dod := delta - e.prevDelta
		e.prevDelta = delta
		e.prevTS = ts
		switch {
		case dod == 0:
			e.w.writeBits(0b0, 1)
		case -63 <= dod && dod <= 64:
			e.w.writeBits(0b10, 2)
			e.w.writeBits(uint64(dod+63), 7)
		case -255 <= dod && dod <= 256:
			e.w.writeBits(0b110, 3)
			e.w.writeBits(uint64(dod+255), 9)
		case -2047 <= dod && dod <= 2048:
			e.w.writeBits(0b1110, 4)
			e.w.writeBits(uint64(dod+2047), 12)
		default:
			e.w.writeBits(0b1111, 4)
			e.w.writeBits(uint64(dod), 64)
		}
		// Value: XOR against the linear prediction's bit pattern.
		x := vb ^ predictBits(e.prevVBits, e.prevPrevVBits)
		e.prevPrevVBits, e.prevVBits = e.prevVBits, vb
		if x == 0 {
			e.w.writeBits(0b0, 1)
		} else {
			lead := bits.LeadingZeros64(x)
			if lead > 31 {
				lead = 31 // 5-bit leading field
			}
			trail := bits.TrailingZeros64(x)
			if e.leading >= 0 && lead >= e.leading && trail >= e.trailing {
				// Reuse the previous window: '10' + meaningful bits.
				e.w.writeBits(0b10, 2)
				e.w.writeBits(x>>uint(e.trailing), 64-e.leading-e.trailing)
			} else {
				// New window: '11' + 5-bit leading + 6-bit (sigbits-1)
				// + the meaningful bits themselves.
				sig := 64 - lead - trail
				e.leading, e.trailing = lead, trail
				e.w.writeBits(0b11, 2)
				e.w.writeBits(uint64(lead), 5)
				e.w.writeBits(uint64(sig-1), 6)
				e.w.writeBits(x>>uint(trail), sig)
			}
		}
		// Header aggregates use the same comparison semantics as
		// aggState.addSample so folded tiers match raw aggregation.
		if v < e.min {
			e.min = v
		}
		if v > e.max {
			e.max = v
		}
	}
	e.sum += v
	e.last = v
	e.count++
}

// seal finalizes the encoder into an immutable chunk that owns an
// exact-size copy of the bits, and returns the scratch to the pool. The
// encoder is spent afterwards.
func (e *chunkEncoder) seal() *chunk {
	ck := &chunk{
		count:   e.count,
		firstTS: e.firstTS,
		lastTS:  e.prevTS,
		min:     e.min,
		max:     e.max,
		sum:     e.sum,
		first:   e.first,
		last:    e.last,
		bits:    make([]byte, len(e.w.b)),
		nbits:   e.w.nbits,
	}
	copy(ck.bits, e.w.b)
	if e.scratch != nil {
		*e.scratch = e.w.b[:0] // keep the grown buffer for the next seal
		sealScratch.Put(e.scratch)
		e.scratch, e.w.b = nil, nil
	}
	return ck
}

// --- decoder -----------------------------------------------------------

// chunkIter decompresses a chunk one sample at a time. Usage:
//
//	it := c.iter()
//	for it.next() {
//	    use(it.ts, it.v)
//	}
//
// next returns false at the end of the stream or on corruption; the
// iterator never yields partial samples.
type chunkIter struct {
	r         bitReader
	remaining int
	started   bool

	ts        int64
	v         float64
	delta     int64
	vbits     uint64
	prevVBits uint64
	leading   int
	trailing  int
}

// iter returns a fresh iterator over the chunk.
func (c *chunk) iter() chunkIter {
	return chunkIter{
		r:         bitReader{b: c.bits, nbits: c.nbits},
		remaining: c.count,
	}
}

// next decodes the next sample into it.ts / it.v.
func (it *chunkIter) next() bool {
	if it.remaining <= 0 {
		return false
	}
	if !it.started {
		tsBits, ok1 := it.r.readBits(64)
		vBits, ok2 := it.r.readBits(64)
		if !ok1 || !ok2 {
			it.remaining = 0
			return false
		}
		it.started = true
		it.ts = int64(tsBits)
		it.vbits, it.prevVBits = vBits, vBits
		it.v = math.Float64frombits(vBits)
		it.leading = -1
		it.remaining--
		return true
	}
	// Timestamp: the length of the '1' prefix (0–4 bits) selects the
	// delta-of-delta bucket.
	prefix := 0
	for prefix < 4 {
		b, ok := it.r.readBits(1)
		if !ok {
			return it.corrupt()
		}
		if b == 0 {
			break
		}
		prefix++
	}
	var dod int64
	switch prefix {
	case 0: // '0' — dod is zero
	case 1: // '10' + 7 bits
		raw, ok := it.r.readBits(7)
		if !ok {
			return it.corrupt()
		}
		dod = int64(raw) - 63
	case 2: // '110' + 9 bits
		raw, ok := it.r.readBits(9)
		if !ok {
			return it.corrupt()
		}
		dod = int64(raw) - 255
	case 3: // '1110' + 12 bits
		raw, ok := it.r.readBits(12)
		if !ok {
			return it.corrupt()
		}
		dod = int64(raw) - 2047
	default: // '1111' + 64 bits
		raw, ok := it.r.readBits(64)
		if !ok {
			return it.corrupt()
		}
		dod = int64(raw)
	}
	it.delta += dod
	it.ts += it.delta
	// Value: reconstruct the same prediction the encoder used, then
	// XOR the decoded residual back in ('0' control = residual zero,
	// i.e. the value IS the prediction).
	var x uint64
	ctl, ok := it.r.readBits(1)
	if !ok {
		return it.corrupt()
	}
	if ctl == 1 {
		ctl2, ok := it.r.readBits(1)
		if !ok {
			return it.corrupt()
		}
		if ctl2 == 1 { // new window
			lead, ok1 := it.r.readBits(5)
			sigm1, ok2 := it.r.readBits(6)
			if !ok1 || !ok2 {
				return it.corrupt()
			}
			sig := int(sigm1) + 1
			it.leading = int(lead)
			it.trailing = 64 - it.leading - sig
		}
		if it.leading < 0 {
			return it.corrupt() // window reuse before any window
		}
		sig := 64 - it.leading - it.trailing
		mbits, ok := it.r.readBits(sig)
		if !ok {
			return it.corrupt()
		}
		x = mbits << uint(it.trailing)
	}
	pred := predictBits(it.vbits, it.prevVBits)
	it.prevVBits = it.vbits
	it.vbits = pred ^ x
	it.v = math.Float64frombits(it.vbits)
	it.remaining--
	return true
}

func (it *chunkIter) corrupt() bool {
	it.remaining = 0
	return false
}
