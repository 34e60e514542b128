package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// encodeSamples runs the chunk encoder over parallel ts/vs slices.
func encodeSamples(ts []int64, vs []float64) *chunk {
	var enc chunkEncoder
	for i := range ts {
		enc.add(ts[i], vs[i])
	}
	return enc.seal(nil)
}

// requireRoundTrip decodes ck and compares against ts/vs bit-exactly:
// timestamps as int64, values via math.Float64bits so NaN payloads and
// signed zeros must survive.
func requireRoundTrip(t *testing.T, ck *chunk, ts []int64, vs []float64) {
	t.Helper()
	it := ck.iter()
	for i := range ts {
		if !it.next() {
			t.Fatalf("decoder ended at sample %d of %d", i, len(ts))
		}
		if it.ts != ts[i] {
			t.Fatalf("sample %d: ts = %d, want %d", i, it.ts, ts[i])
		}
		if math.Float64bits(it.v) != math.Float64bits(vs[i]) {
			t.Fatalf("sample %d: v bits = %#x, want %#x (v=%v want=%v)",
				i, math.Float64bits(it.v), math.Float64bits(vs[i]), it.v, vs[i])
		}
	}
	if it.next() {
		t.Fatalf("decoder yielded more than %d samples", len(ts))
	}
	if ck.count != len(ts) {
		t.Fatalf("count = %d, want %d", ck.count, len(ts))
	}
	if len(ts) > 0 && (ck.firstTS != ts[0] || ck.lastTS != ts[len(ts)-1]) {
		t.Fatalf("header span [%d,%d], want [%d,%d]", ck.firstTS, ck.lastTS, ts[0], ts[len(ts)-1])
	}
}

// TestChunkRoundTripShapes covers the series shapes the store actually
// sees, each bit-exact through encode/decode.
func TestChunkRoundTripShapes(t *testing.T) {
	nan1 := math.NaN()
	nan2 := math.Float64frombits(0x7ff8deadbeef0001) // distinct NaN payload
	shapes := map[string]struct {
		ts []int64
		vs []float64
	}{
		"single": {[]int64{12345}, []float64{6.78}},
		"pair":   {[]int64{1, 2}, []float64{1.0, 2.0}},
		"constant": {
			[]int64{0, 1e6, 2e6, 3e6, 4e6},
			[]float64{42.5, 42.5, 42.5, 42.5, 42.5},
		},
		"counter": {
			[]int64{0, 1e6, 2e6, 3e6, 4e6, 5e6},
			[]float64{1500, 3000, 4500, 6000, 7500, 9000},
		},
		"counter-reset": {
			[]int64{0, 1e6, 2e6, 3e6, 4e6},
			[]float64{5e9, 5.1e9, 5.2e9, 12, 1512}, // agent restart drops the counter
		},
		"nan-inf": {
			[]int64{0, 1, 2, 3, 4, 5, 6},
			[]float64{1.5, nan1, nan2, math.Inf(1), math.Inf(-1), nan1, 2.5},
		},
		"signed-zero": {
			[]int64{0, 1, 2, 3},
			[]float64{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0},
		},
		"jittery-ts": { // dod exercises every bucket incl. the raw escape
			[]int64{0, 1e6, 2e6 + 30, 3e6 - 200, 4e6 + 1500, 5e6 + 1e9, -3},
			[]float64{1, 2, 3, 4, 5, 6, 7},
		},
		"negative-ts": {
			[]int64{-5e9, -4e9, -3e9},
			[]float64{1, 2, 3},
		},
	}
	for name, sh := range shapes {
		t.Run(name, func(t *testing.T) {
			requireRoundTrip(t, encodeSamples(sh.ts, sh.vs), sh.ts, sh.vs)
		})
	}
}

// TestChunkRoundTripDodBoundaries pins the delta-of-delta bucket edges:
// each boundary value and its neighbor just outside must survive, so an
// off-by-one in a bucket range corrupts the stream and fails here.
func TestChunkRoundTripDodBoundaries(t *testing.T) {
	for _, dod := range []int64{-64, -63, 64, 65, -256, -255, 256, 257,
		-2048, -2047, 2048, 2049, 1 << 40, -(1 << 40)} {
		// ts[2]-ts[1] differs from ts[1]-ts[0] by exactly dod.
		ts := []int64{0, 1000, 2000 + dod}
		vs := []float64{1, 2, 3}
		requireRoundTrip(t, encodeSamples(ts, vs), ts, vs)
	}
}

// TestChunkRoundTripRandom is the property test: many random series of
// several statistical flavors (smooth walk, raw random bit patterns,
// monotone counters with occasional resets) all round-trip bit-exactly.
func TestChunkRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		ts := make([]int64, n)
		vs := make([]float64, n)
		mode := trial % 3
		tcur := rng.Int63n(1e15)
		vcur := rng.Float64() * 1e6
		for i := 0; i < n; i++ {
			tcur += rng.Int63n(2e6) - 1e3 // mostly forward, sometimes backward
			ts[i] = tcur
			switch mode {
			case 0: // smooth gauge
				vcur += rng.NormFloat64() * 10
				vs[i] = vcur
			case 1: // arbitrary bit patterns, incl. NaNs/Infs/denormals
				vs[i] = math.Float64frombits(rng.Uint64())
			case 2: // counter with resets
				if rng.Intn(50) == 0 {
					vcur = 0
				}
				vcur += float64(rng.Intn(3000))
				vs[i] = vcur
			}
		}
		requireRoundTrip(t, encodeSamples(ts, vs), ts, vs)
	}
}

// TestChunkCounterCompression pins the headline compression target: a
// counter-like series (1 ms tick, constant increment — tx_bytes under
// steady traffic) must seal to no more than 2 bytes per sample; the
// predictive-XOR encoding actually lands far below that.
func TestChunkCounterCompression(t *testing.T) {
	const n = 4096
	ts := make([]int64, n)
	vs := make([]float64, n)
	tcur, vcur := int64(0), 0.0
	for i := 0; i < n; i++ {
		tcur += int64(time.Millisecond)
		vcur += 1500
		ts[i] = tcur
		vs[i] = vcur
	}
	ck := encodeSamples(ts, vs)
	bps := float64(ck.sizeBytes()) / float64(ck.count)
	if bps > 2 {
		t.Fatalf("counter series compresses to %.3f bytes/sample, want <= 2", bps)
	}
	t.Logf("counter series: %.3f bytes/sample (%d bytes for %d samples, 16 B/sample raw)",
		bps, ck.sizeBytes(), ck.count)
}

// TestChunkHeaderAggregates checks the header min/max/sum/first/last
// match a scan of the samples — retention relies on them when folding a
// chunk into a tier without decompressing for the summary.
func TestChunkHeaderAggregates(t *testing.T) {
	ts := []int64{10, 20, 30, 40}
	vs := []float64{3.5, -1.25, 7.75, 0.5}
	ck := encodeSamples(ts, vs)
	if ck.min != -1.25 || ck.max != 7.75 {
		t.Fatalf("min/max = %v/%v", ck.min, ck.max)
	}
	if want := 3.5 - 1.25 + 7.75 + 0.5; ck.sum != want {
		t.Fatalf("sum = %v, want %v", ck.sum, want)
	}
	if ck.first != 3.5 || ck.last != 0.5 {
		t.Fatalf("first/last = %v/%v", ck.first, ck.last)
	}
}

// TestChunkTruncatedStream verifies the decoder fails closed on a
// truncated payload: it stops yielding samples rather than panicking,
// looping, or inventing data.
func TestChunkTruncatedStream(t *testing.T) {
	ts := make([]int64, 64)
	vs := make([]float64, 64)
	for i := range ts {
		ts[i] = int64(i) * 1e6
		vs[i] = float64(i) * 1.5
	}
	ck := encodeSamples(ts, vs)
	for cut := 0; cut < ck.nbits; cut += 13 {
		trunc := &chunk{count: ck.count, bits: ck.bits, nbits: cut}
		it := trunc.iter()
		got := 0
		for it.next() {
			got++
		}
		if got > ck.count {
			t.Fatalf("cut %d: decoder yielded %d samples from %d", cut, got, ck.count)
		}
	}
}

// FuzzChunkRoundTrip derives a sample stream from fuzz bytes and
// requires a bit-exact round trip. The corpus seeds cover the encoder's
// branch points (dod buckets, XOR window reuse/reset, NaN).
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xf0, 0, 0, 0, 0, 0, 1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		// 16 bytes per sample: 8 for the ts delta, 8 for the value bits.
		n := len(data) / 16
		if n == 0 {
			return
		}
		if n > 1024 {
			n = 1024
		}
		ts := make([]int64, n)
		vs := make([]float64, n)
		var tcur int64
		for i := 0; i < n; i++ {
			off := i * 16
			var d, vbits uint64
			for j := 0; j < 8; j++ {
				d = d<<8 | uint64(data[off+j])
				vbits = vbits<<8 | uint64(data[off+8+j])
			}
			tcur += int64(d) // arbitrary, incl. negative / overflowing deltas
			ts[i] = tcur
			vs[i] = math.Float64frombits(vbits)
		}
		ck := encodeSamples(ts, vs)
		it := ck.iter()
		for i := 0; i < n; i++ {
			if !it.next() {
				t.Fatalf("decoder ended at sample %d of %d", i, n)
			}
			if it.ts != ts[i] || math.Float64bits(it.v) != math.Float64bits(vs[i]) {
				t.Fatalf("sample %d: got (%d, %#x) want (%d, %#x)",
					i, it.ts, math.Float64bits(it.v), ts[i], math.Float64bits(vs[i]))
			}
		}
		if it.next() {
			t.Fatal("decoder yielded extra samples")
		}
	})
}
