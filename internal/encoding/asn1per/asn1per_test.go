package asn1per

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitRoundTrip(t *testing.T) {
	w := NewWriter(16)
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %v want %v", i, got, want)
		}
	}
}

func TestWriteBitsBoundaries(t *testing.T) {
	cases := []struct {
		v uint64
		n int
	}{
		{0, 0}, {1, 1}, {0x5, 3}, {0xFF, 8}, {0x1FF, 9},
		{0xDEADBEEF, 32}, {math.MaxUint64, 64}, {1, 64}, {0, 17},
	}
	w := NewWriter(64)
	for _, c := range cases {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes())
	for i, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.v {
			t.Fatalf("case %d: got %#x want %#x (n=%d)", i, got, c.v, c.n)
		}
	}
}

func TestConstrainedInt(t *testing.T) {
	cases := []struct {
		v, lo, hi int64
	}{
		{0, 0, 0}, {5, 0, 10}, {-3, -10, 10}, {255, 0, 255},
		{256, 0, 65535}, {1 << 40, 0, 1 << 62}, {-1 << 30, -1 << 31, 1<<31 - 1},
	}
	w := NewWriter(64)
	for _, c := range cases {
		if err := w.WriteConstrainedInt(c.v, c.lo, c.hi); err != nil {
			t.Fatalf("write %+v: %v", c, err)
		}
	}
	r := NewReader(w.Bytes())
	for i, c := range cases {
		got, err := r.ReadConstrainedInt(c.lo, c.hi)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.v {
			t.Fatalf("case %d: got %d want %d", i, got, c.v)
		}
	}
}

func TestConstrainedIntRangeError(t *testing.T) {
	w := NewWriter(8)
	if err := w.WriteConstrainedInt(11, 0, 10); err == nil {
		t.Fatal("expected range error for value above hi")
	}
	if err := w.WriteConstrainedInt(-1, 0, 10); err == nil {
		t.Fatal("expected range error for value below lo")
	}
	if err := w.WriteConstrainedInt(0, 5, 4); err == nil {
		t.Fatal("expected range error for inverted range")
	}
}

func TestLengthDeterminant(t *testing.T) {
	lengths := []int{0, 1, 127, 128, 300, 16383, 16384, 100000, MaxLength}
	w := NewWriter(64)
	for _, n := range lengths {
		w.WriteLength(n)
	}
	r := NewReader(w.Bytes())
	for i, want := range lengths {
		got, err := r.ReadLength()
		if err != nil {
			t.Fatalf("len %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("len %d: got %d want %d", i, got, want)
		}
	}
}

func TestLengthEncodingSizes(t *testing.T) {
	// Short lengths must stay compact: PER's whole point.
	w := NewWriter(4)
	w.WriteLength(5)
	if w.Len() != 1 {
		t.Fatalf("length 5 took %d bytes, want 1", w.Len())
	}
	w.Reset()
	w.WriteLength(200)
	if w.Len() != 2 {
		t.Fatalf("length 200 took %d bytes, want 2", w.Len())
	}
}

func TestOctetsAndString(t *testing.T) {
	w := NewWriter(64)
	w.WriteBit(true) // force unaligned start
	w.WriteOctets([]byte{1, 2, 3})
	w.WriteString("héllo")
	w.WriteOctets(nil)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBit(); err != nil {
		t.Fatal(err)
	}
	o, err := r.ReadOctets()
	if err != nil || !bytes.Equal(o, []byte{1, 2, 3}) {
		t.Fatalf("octets: %v %v", o, err)
	}
	s, err := r.ReadString()
	if err != nil || s != "héllo" {
		t.Fatalf("string: %q %v", s, err)
	}
	o, err = r.ReadOctets()
	if err != nil || len(o) != 0 {
		t.Fatalf("empty octets: %v %v", o, err)
	}
}

func TestZeroCopyOctetsAlias(t *testing.T) {
	w := NewWriter(16)
	w.WriteOctets([]byte{9, 8, 7})
	buf := w.Bytes()
	r := NewReader(buf)
	o, err := r.ReadOctetsZeroCopy()
	if err != nil {
		t.Fatal(err)
	}
	buf[1] = 42 // first payload byte (after 1-byte length)
	if o[0] != 42 {
		t.Fatal("zero-copy read should alias the input buffer")
	}
}

func TestUintInt(t *testing.T) {
	us := []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64}
	is := []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64}
	w := NewWriter(128)
	for _, v := range us {
		w.WriteUint(v)
	}
	for _, v := range is {
		w.WriteInt(v)
	}
	r := NewReader(w.Bytes())
	for i, want := range us {
		got, err := r.ReadUint()
		if err != nil || got != want {
			t.Fatalf("uint %d: got %d want %d err %v", i, got, want, err)
		}
	}
	for i, want := range is {
		got, err := r.ReadInt()
		if err != nil || got != want {
			t.Fatalf("int %d: got %d want %d err %v", i, got, want, err)
		}
	}
}

func TestEnumAndBitmap(t *testing.T) {
	w := NewWriter(8)
	if err := w.WriteEnum(3, 5); err != nil {
		t.Fatal(err)
	}
	w.WriteOptionalBitmap([]bool{true, false, true})
	r := NewReader(w.Bytes())
	e, err := r.ReadEnum(5)
	if err != nil || e != 3 {
		t.Fatalf("enum: %d %v", e, err)
	}
	bm, err := r.ReadOptionalBitmap(3)
	if err != nil || !bm[0] || bm[1] || !bm[2] {
		t.Fatalf("bitmap: %v %v", bm, err)
	}
}

func TestFloat(t *testing.T) {
	vals := []float64{0, 1.5, -3.25, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)}
	w := NewWriter(64)
	for _, f := range vals {
		w.WriteFloat(f)
	}
	r := NewReader(w.Bytes())
	for i, want := range vals {
		got, err := r.ReadFloat()
		if err != nil || got != want {
			t.Fatalf("float %d: got %v want %v err %v", i, got, want, err)
		}
	}
	// NaN round-trips as NaN.
	w.Reset()
	w.WriteFloat(math.NaN())
	r.Reset(w.Bytes())
	got, err := r.ReadFloat()
	if err != nil || !math.IsNaN(got) {
		t.Fatalf("NaN: got %v err %v", got, err)
	}
}

func TestTruncatedInputs(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.ReadBit(); err != ErrTruncated {
		t.Fatalf("ReadBit on empty: %v", err)
	}
	if _, err := NewReader(nil).ReadLength(); err != ErrTruncated {
		t.Fatal("ReadLength on empty should fail")
	}
	// Length says 10 bytes but only 2 present.
	if _, err := NewReader([]byte{10, 1, 2}).ReadOctets(); err != ErrTruncated {
		t.Fatal("ReadOctets should detect truncation")
	}
	// Two-byte length form cut short.
	if _, err := NewReader([]byte{0x81}).ReadLength(); err != ErrTruncated {
		t.Fatal("two-byte length truncation")
	}
	// Four-byte length form cut short.
	if _, err := NewReader([]byte{0xC0, 0x01}).ReadLength(); err != ErrTruncated {
		t.Fatal("four-byte length truncation")
	}
}

func TestAlignSemantics(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0x3, 2)
	w.Align()
	w.WriteFixedOctets([]byte{0xAB})
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(2); v != 0x3 {
		t.Fatalf("prefix bits: %#x", v)
	}
	b, err := r.ReadFixedOctets(1)
	if err != nil || b[0] != 0xAB {
		t.Fatalf("aligned octet: %v %v", b, err)
	}
}

func TestWriterReuse(t *testing.T) {
	w := NewWriter(8)
	w.WriteString("first")
	first := append([]byte(nil), w.Bytes()...)
	w.Reset()
	w.WriteString("second")
	if bytes.Equal(first, w.Bytes()) {
		t.Fatal("reset writer should produce fresh content")
	}
	s, err := NewReader(w.Bytes()).ReadString()
	if err != nil || s != "second" {
		t.Fatalf("after reuse: %q %v", s, err)
	}
}

// Property: every (value, range) pair round-trips.
func TestQuickConstrainedInt(t *testing.T) {
	f := func(raw uint64, loRaw int32, spanRaw uint16) bool {
		lo := int64(loRaw)
		hi := lo + int64(spanRaw)
		v := lo + int64(raw%uint64(spanRaw+1))
		w := NewWriter(16)
		if err := w.WriteConstrainedInt(v, lo, hi); err != nil {
			return false
		}
		got, err := NewReader(w.Bytes()).ReadConstrainedInt(lo, hi)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary byte strings and ints round-trip in sequence.
func TestQuickSequenceRoundTrip(t *testing.T) {
	f := func(b []byte, u uint64, i int64, s string, flag bool) bool {
		if len(b) > MaxLength || len(s) > MaxLength {
			return true
		}
		w := NewWriter(64)
		w.WriteBool(flag)
		w.WriteOctets(b)
		w.WriteUint(u)
		w.WriteInt(i)
		w.WriteString(s)
		r := NewReader(w.Bytes())
		gf, err := r.ReadBool()
		if err != nil || gf != flag {
			return false
		}
		gb, err := r.ReadOctets()
		if err != nil || !bytes.Equal(gb, b) {
			return false
		}
		gu, err := r.ReadUint()
		if err != nil || gu != u {
			return false
		}
		gi, err := r.ReadInt()
		if err != nil || gi != i {
			return false
		}
		gs, err := r.ReadString()
		return err == nil && gs == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoder never panics on random garbage.
func TestQuickDecoderRobustness(t *testing.T) {
	f := func(b []byte) bool {
		r := NewReader(b)
		_, _ = r.ReadLength()
		_, _ = r.ReadOctets()
		_, _ = r.ReadUint()
		_, _ = r.ReadConstrainedInt(0, 1000)
		_, _ = r.ReadFloat()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		for j := 0; j < 64; j++ {
			w.WriteBits(uint64(j), 11)
		}
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1024)
	for j := 0; j < 64; j++ {
		w.WriteBits(uint64(j), 11)
	}
	buf := w.Bytes()
	r := NewReader(buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(buf)
		for j := 0; j < 64; j++ {
			if _, err := r.ReadBits(11); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// WriteBits has a whole-octet fast path for byte-aligned writes. Over
// random mixes of aligned and unaligned fields it must produce exactly
// the stream a bit-at-a-time writer produces, with or without a Grow
// reservation in front.
func TestWriteBitsMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	widths := []int{0, 1, 3, 7, 8, 9, 16, 24, 31, 32, 40, 56, 63, 64}
	for iter := 0; iter < 300; iter++ {
		var fast, slow Writer
		if iter%2 == 0 {
			fast.Grow(rng.Intn(256))
		}
		for f := 0; f < 1+rng.Intn(20); f++ {
			n := widths[rng.Intn(len(widths))]
			v := rng.Uint64() // high bits beyond n must be ignored
			fast.WriteBits(v, n)
			for i := n - 1; i >= 0; i-- {
				slow.WriteBit(v>>uint(i)&1 == 1)
			}
			if rng.Intn(4) == 0 {
				fast.Align()
				slow.Align()
			}
		}
		if !bytes.Equal(fast.Bytes(), slow.Bytes()) || fast.BitLen() != slow.BitLen() {
			t.Fatalf("iter %d: WriteBits %x (%d bits), bit by bit %x (%d bits)",
				iter, fast.Bytes(), fast.BitLen(), slow.Bytes(), slow.BitLen())
		}
	}
}
