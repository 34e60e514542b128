package protowire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldRoundTrip(t *testing.T) {
	e := NewEncoder(128)
	e.Uint64(1, 300)
	e.Int64(2, -42)
	e.Bool(3, true)
	e.Double(4, math.Pi)
	e.BytesField(5, []byte{9, 8, 7})
	e.String(6, "flexran")

	d := NewDecoder(e.Bytes())
	expect := func(wantField, wantWire int) {
		t.Helper()
		f, w, err := d.Tag()
		if err != nil || f != wantField || w != wantWire {
			t.Fatalf("tag: got (%d,%d,%v) want (%d,%d)", f, w, err, wantField, wantWire)
		}
	}
	expect(1, TypeVarint)
	if v, _ := d.Uint64(); v != 300 {
		t.Fatalf("u64: %d", v)
	}
	expect(2, TypeVarint)
	if v, _ := d.Int64(); v != -42 {
		t.Fatalf("i64: %d", v)
	}
	expect(3, TypeVarint)
	if v, _ := d.Bool(); !v {
		t.Fatal("bool")
	}
	expect(4, TypeFixed64)
	if v, _ := d.Double(); v != math.Pi {
		t.Fatalf("double: %v", v)
	}
	expect(5, TypeBytes)
	if v, _ := d.Bytes(); !bytes.Equal(v, []byte{9, 8, 7}) {
		t.Fatalf("bytes: %v", v)
	}
	expect(6, TypeBytes)
	if v, _ := d.String(); v != "flexran" {
		t.Fatalf("string: %q", v)
	}
	if d.More() {
		t.Fatal("unexpected trailing data")
	}
}

func TestVarintBoundaries(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint64}
	e := NewEncoder(64)
	for _, v := range vals {
		e.Uint64(1, v)
	}
	d := NewDecoder(e.Bytes())
	for i, want := range vals {
		if _, _, err := d.Tag(); err != nil {
			t.Fatalf("tag %d: %v", i, err)
		}
		got, err := d.Uint64()
		if err != nil || got != want {
			t.Fatalf("val %d: got %d want %d err %v", i, got, want, err)
		}
	}
}

func TestVarintSizes(t *testing.T) {
	e := NewEncoder(16)
	e.Uint64(1, 1) // tag(1 byte) + value(1 byte)
	if e.Len() != 2 {
		t.Fatalf("small varint field took %d bytes, want 2", e.Len())
	}
}

func TestSkip(t *testing.T) {
	e := NewEncoder(64)
	e.Uint64(1, 5)
	e.Double(2, 1.0)
	e.BytesField(3, make([]byte, 10))
	e.Uint64(4, 77)
	d := NewDecoder(e.Bytes())
	for {
		f, w, err := d.Tag()
		if err != nil {
			t.Fatal(err)
		}
		if f == 4 {
			v, err := d.Uint64()
			if err != nil || v != 77 {
				t.Fatalf("field 4: %d %v", v, err)
			}
			break
		}
		if err := d.Skip(w); err != nil {
			t.Fatalf("skip field %d: %v", f, err)
		}
	}
}

func TestEmbedded(t *testing.T) {
	inner := NewEncoder(32)
	inner.Uint64(1, 123)
	outer := NewEncoder(64)
	outer.Embedded(7, inner.Bytes())
	d := NewDecoder(outer.Bytes())
	f, w, err := d.Tag()
	if err != nil || f != 7 || w != TypeBytes {
		t.Fatalf("outer tag: %d %d %v", f, w, err)
	}
	sub, err := d.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	di := NewDecoder(sub)
	if _, _, err := di.Tag(); err != nil {
		t.Fatal(err)
	}
	if v, _ := di.Uint64(); v != 123 {
		t.Fatalf("inner: %d", v)
	}
}

func TestErrors(t *testing.T) {
	// Truncated varint.
	if _, err := NewDecoder([]byte{0x80}).Uint64(); err != ErrTruncated {
		t.Fatalf("truncated varint: %v", err)
	}
	// Varint overflow (11 continuation bytes).
	over := bytes.Repeat([]byte{0xFF}, 11)
	if _, err := NewDecoder(over).Uint64(); err != ErrOverflow {
		t.Fatalf("overflow: %v", err)
	}
	// Length exceeds remaining input.
	if _, err := NewDecoder([]byte{5, 1, 2}).Bytes(); err != ErrTruncated {
		t.Fatalf("truncated bytes: %v", err)
	}
	// Field number 0 is invalid.
	if _, _, err := NewDecoder([]byte{0x00}).Tag(); err == nil {
		t.Fatal("field 0 must be rejected")
	}
	// Unknown wire type on skip.
	if err := NewDecoder(nil).Skip(7); err == nil {
		t.Fatal("bad wire type must fail")
	}
	// Truncated fixed64.
	if _, err := NewDecoder([]byte{1, 2, 3}).Double(); err != ErrTruncated {
		t.Fatalf("truncated double: %v", err)
	}
}

func TestQuickVarintRoundTrip(t *testing.T) {
	f := func(u uint64, i int64) bool {
		e := NewEncoder(32)
		e.Uint64(1, u)
		e.Int64(2, i)
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Tag(); err != nil {
			return false
		}
		gu, err := d.Uint64()
		if err != nil || gu != u {
			return false
		}
		if _, _, err := d.Tag(); err != nil {
			return false
		}
		gi, err := d.Int64()
		return err == nil && gi == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecoderRobustness(t *testing.T) {
	f := func(b []byte) bool {
		d := NewDecoder(b)
		for d.More() {
			_, w, err := d.Tag()
			if err != nil {
				return true
			}
			if err := d.Skip(w); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 256)
	e := NewEncoder(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Uint64(1, uint64(i))
		e.Uint64(2, 42)
		e.BytesField(3, payload)
		e.Double(4, 1.5)
	}
}

func BenchmarkDecode(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 256)
	e := NewEncoder(512)
	e.Uint64(1, 9)
	e.Uint64(2, 42)
	e.BytesField(3, payload)
	e.Double(4, 1.5)
	buf := e.Bytes()
	d := NewDecoder(buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Reset(buf)
		for d.More() {
			_, w, err := d.Tag()
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Skip(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}
