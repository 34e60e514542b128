package tsdb

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refChunk is the reference the seal path is compared against: the
// chunk bitstream encoder kept apart from chunk.go's, writing into a
// fresh slice grown by one append per byte. Snapshots write chunk bits
// verbatim, so the pooled seal must keep producing exactly these bytes;
// do not edit it along with chunk.go.
func refChunk(ts []int64, vs []float64) (b []byte, nbits int) {
	write := func(v uint64, n int) {
		if n <= 0 {
			return
		}
		if n < 64 {
			v <<= 64 - uint(n)
		}
		for n > 0 {
			off := nbits & 7
			if off == 0 {
				b = append(b, 0)
			}
			take := 8 - off
			if take > n {
				take = n
			}
			b[len(b)-1] |= byte(v>>56) >> uint(off)
			v <<= uint(take)
			n -= take
			nbits += take
		}
	}
	var prevTS, prevDelta int64
	var prevVBits, prevPrevVBits uint64
	leading, trailing := -1, 0
	for i := range ts {
		vb := math.Float64bits(vs[i])
		if i == 0 {
			write(uint64(ts[i]), 64)
			write(vb, 64)
			prevTS = ts[i]
			prevVBits, prevPrevVBits = vb, vb
			continue
		}
		delta := ts[i] - prevTS
		dod := delta - prevDelta
		prevDelta, prevTS = delta, ts[i]
		switch {
		case dod == 0:
			write(0b0, 1)
		case -63 <= dod && dod <= 64:
			write(0b10, 2)
			write(uint64(dod+63), 7)
		case -255 <= dod && dod <= 256:
			write(0b110, 3)
			write(uint64(dod+255), 9)
		case -2047 <= dod && dod <= 2048:
			write(0b1110, 4)
			write(uint64(dod+2047), 12)
		default:
			write(0b1111, 4)
			write(uint64(dod), 64)
		}
		x := vb ^ predictBits(prevVBits, prevPrevVBits)
		prevPrevVBits, prevVBits = prevVBits, vb
		if x == 0 {
			write(0b0, 1)
			continue
		}
		lead := min(bits.LeadingZeros64(x), 31)
		trail := bits.TrailingZeros64(x)
		if leading >= 0 && lead >= leading && trail >= trailing {
			write(0b10, 2)
			write(x>>uint(trailing), 64-leading-trailing)
		} else {
			sig := 64 - lead - trail
			leading, trailing = lead, trail
			write(0b11, 2)
			write(uint64(lead), 5)
			write(uint64(sig-1), 6)
			write(x>>uint(trail), sig)
		}
	}
	return b, nbits
}

// randStream draws one sample stream of 1–1024 samples: timestamps
// mostly on a jittered period with occasional huge or backward jumps
// (every delta-of-delta bucket, the raw escape included), and values
// mixing counters, gauges, raw bit patterns, NaN and ±Inf.
func randStream(rng *rand.Rand) (ts []int64, vs []float64) {
	n := 1 + rng.Intn(1024)
	ts, vs = make([]int64, n), make([]float64, n)
	t, v := rng.Int63()-rng.Int63(), rng.NormFloat64()*1e6
	for i := range ts {
		switch r := rng.Intn(20); {
		case r == 0:
			t += rng.Int63() - rng.Int63() // huge delta-of-delta either way
		case r < 3:
			t -= rng.Int63n(5000)
		default:
			t += 1e6 + rng.Int63n(3000) - 1500
		}
		ts[i] = t
		switch r := rng.Intn(12); r {
		case 0:
			vs[i] = math.NaN()
		case 1:
			vs[i] = math.Inf(1 - 2*rng.Intn(2))
		case 2:
			vs[i] = math.Float64frombits(rng.Uint64())
		case 3, 4:
			v += rng.NormFloat64() * 100
			vs[i] = v
		default:
			v += 1500
			vs[i] = v
		}
	}
	return ts, vs
}

// TestSealMatchesReference is the seal property: chunks sealed through
// the pooled scratch carry exactly the reference encoder's bits and bit
// count, own them at their exact size, and keep them when later seals
// reuse (and overwrite) the same scratch.
func TestSealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	type sealed struct {
		ck   *chunk
		want []byte
	}
	var all []sealed
	for trial := 0; trial < 400; trial++ {
		ts, vs := randStream(rng)
		ck := encodeSamples(ts, vs)
		want, nbits := refChunk(ts, vs)
		if !bytes.Equal(ck.bits, want) || ck.nbits != nbits {
			t.Fatalf("trial %d (%d samples): %d bits % x, reference %d bits % x", trial, len(ts), ck.nbits, ck.bits, nbits, want)
		}
		if cap(ck.bits) != len(ck.bits) {
			t.Fatalf("trial %d: chunk bits have cap %d for len %d", trial, cap(ck.bits), len(ck.bits))
		}
		requireRoundTrip(t, ck, ts, vs)
		all = append(all, sealed{ck, want})
	}
	for i, s := range all {
		if !bytes.Equal(s.ck.bits, s.want) {
			t.Fatalf("chunk %d changed after later seals", i)
		}
	}
}
