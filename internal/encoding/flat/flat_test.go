package flat

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSimple(t *testing.T) []byte {
	t.Helper()
	b := NewBuilder(128)
	s := b.CreateString("hello")
	v := b.CreateByteVector([]byte{1, 2, 3, 4})
	b.StartTable(6)
	b.AddUint64(0, 0xDEADBEEFCAFE)
	b.AddUint32(1, 42)
	b.AddRef(2, s)
	b.AddRef(3, v)
	b.AddBool(4, true)
	b.AddFloat64(5, 2.75)
	root := b.EndTable()
	b.Finish(root)
	return b.Bytes()
}

func TestScalarFields(t *testing.T) {
	buf := buildSimple(t)
	tab, err := GetRoot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Uint64(0); got != 0xDEADBEEFCAFE {
		t.Fatalf("u64: %#x", got)
	}
	if got := tab.Uint32(1); got != 42 {
		t.Fatalf("u32: %d", got)
	}
	if got := tab.String(2); got != "hello" {
		t.Fatalf("string: %q", got)
	}
	if got := tab.Bytes(3); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("bytes: %v", got)
	}
	if !tab.Bool(4) {
		t.Fatal("bool")
	}
	if got := tab.Float64(5); got != 2.75 {
		t.Fatalf("f64: %v", got)
	}
}

func TestAbsentFieldsDefaultToZero(t *testing.T) {
	b := NewBuilder(64)
	b.StartTable(4)
	b.AddUint32(1, 7)
	root := b.EndTable()
	b.Finish(root)
	tab, err := GetRoot(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Has(0) || !tab.Has(1) || tab.Has(2) || tab.Has(3) {
		t.Fatal("presence bits wrong")
	}
	if tab.Uint64(0) != 0 || tab.String(2) != "" || tab.Bytes(3) != nil {
		t.Fatal("absent fields must be zero")
	}
	// Slot index beyond vtable is absent, not a panic.
	if tab.Has(99) || tab.Uint64(99) != 0 {
		t.Fatal("out-of-range slot must read as absent")
	}
}

func TestSubTables(t *testing.T) {
	b := NewBuilder(256)
	// Inner tables must be created before the outer one.
	b.StartTable(1)
	b.AddUint32(0, 11)
	inner1 := b.EndTable()
	b.StartTable(1)
	b.AddUint32(0, 22)
	inner2 := b.EndTable()
	vec := b.CreateRefVector([]uint32{inner1, inner2})
	b.StartTable(2)
	b.AddRef(0, inner1)
	b.AddRef(1, vec)
	root := b.EndTable()
	b.Finish(root)

	tab, err := GetRoot(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sub := tab.SubTable(0)
	if !sub.Valid() || sub.Uint32(0) != 11 {
		t.Fatalf("subtable: %v", sub.Uint32(0))
	}
	if n := tab.VectorLen(1); n != 2 {
		t.Fatalf("vector len: %d", n)
	}
	if got := tab.RefVectorAt(1, 1).Uint32(0); got != 22 {
		t.Fatalf("ref vector elem: %d", got)
	}
	if tab.RefVectorAt(1, 2).Valid() {
		t.Fatal("out-of-range vector index must be invalid")
	}
	if tab.RefVectorAt(1, -1).Valid() {
		t.Fatal("negative vector index must be invalid")
	}
}

func TestScalarVectors(t *testing.T) {
	b := NewBuilder(256)
	u := b.CreateUint64Vector([]uint64{5, 6, 7})
	f := b.CreateFloat64Vector([]float64{1.5, -2.5})
	b.StartTable(2)
	b.AddRef(0, u)
	b.AddRef(1, f)
	b.Finish(b.EndTable())
	tab, err := GetRoot(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tab.VectorLen(0) != 3 || tab.Uint64VectorAt(0, 2) != 7 {
		t.Fatal("u64 vector")
	}
	if tab.VectorLen(1) != 2 || tab.Float64VectorAt(1, 1) != -2.5 {
		t.Fatal("f64 vector")
	}
	if tab.Uint64VectorAt(0, 3) != 0 {
		t.Fatal("out-of-range scalar vector index must be 0")
	}
}

func TestZeroCopy(t *testing.T) {
	buf := buildSimple(t)
	tab, _ := GetRoot(buf)
	raw := tab.Bytes(3)
	raw2 := tab.Bytes(3)
	if &raw[0] != &raw2[0] {
		t.Fatal("Bytes must return stable aliased views")
	}
}

func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(64)
	b.StartTable(1)
	b.AddUint32(0, 1)
	b.Finish(b.EndTable())
	first := append([]byte(nil), b.Bytes()...)
	b.Reset()
	b.StartTable(1)
	b.AddUint32(0, 2)
	b.Finish(b.EndTable())
	t1, _ := GetRoot(first)
	t2, _ := GetRoot(b.Bytes())
	if t1.Uint32(0) != 1 || t2.Uint32(0) != 2 {
		t.Fatal("builder reuse corrupted content")
	}
}

func TestCorruptBuffers(t *testing.T) {
	if _, err := GetRoot(nil); err == nil {
		t.Fatal("nil buffer must fail")
	}
	if _, err := GetRoot([]byte{1, 2}); err == nil {
		t.Fatal("short buffer must fail")
	}
	// Root pointing past the end.
	if _, err := GetRoot([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}); err == nil {
		t.Fatal("out-of-range root must fail")
	}
	// Root pointing into the header.
	if _, err := GetRoot([]byte{2, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("root inside header must fail")
	}
}

// Property: reads on random garbage never panic.
func TestQuickGarbageRobustness(t *testing.T) {
	f := func(buf []byte) bool {
		tab, err := GetRoot(buf)
		if err != nil {
			return true
		}
		for i := -1; i < 8; i++ {
			_ = tab.Uint64(i)
			_ = tab.Uint32(i)
			_ = tab.Bytes(i)
			_ = tab.String(i)
			_ = tab.SubTable(i).Uint64(0)
			_ = tab.VectorLen(i)
			_ = tab.RefVectorAt(i, 0).Valid()
			_ = tab.Uint64VectorAt(i, 1)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: scalar and string fields round-trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u64 uint64, u32 uint32, s string, data []byte, fl float64, bit bool) bool {
		b := NewBuilder(64)
		so := b.CreateString(s)
		do := b.CreateByteVector(data)
		b.StartTable(6)
		b.AddUint64(0, u64)
		b.AddUint32(1, u32)
		b.AddRef(2, so)
		b.AddRef(3, do)
		b.AddFloat64(4, fl)
		b.AddBool(5, bit)
		b.Finish(b.EndTable())
		tab, err := GetRoot(b.Bytes())
		if err != nil {
			return false
		}
		if tab.Uint64(0) != u64 || tab.Uint32(1) != u32 || tab.String(2) != s {
			return false
		}
		got := tab.Bytes(3)
		if len(got) != len(data) || (len(data) > 0 && !bytes.Equal(got, data)) {
			return false
		}
		gf := tab.Float64(4)
		if gf != fl && !(math.IsNaN(gf) && math.IsNaN(fl)) {
			return false
		}
		return tab.Bool(5) == bit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestTableOverheadIsTens(t *testing.T) {
	// The paper observes 30–40 B of FB overhead per message. Our layout
	// should land in the same ballpark for a small message.
	b := NewBuilder(128)
	payload := bytes.Repeat([]byte{0xAA}, 100)
	v := b.CreateByteVector(payload)
	b.StartTable(3)
	b.AddUint32(0, 1)
	b.AddUint32(1, 2)
	b.AddRef(2, v)
	b.Finish(b.EndTable())
	overhead := b.Len() - len(payload)
	if overhead < 10 || overhead > 64 {
		t.Fatalf("per-message overhead %d bytes, expected tens of bytes", overhead)
	}
}

func BenchmarkBuild(b *testing.B) {
	payload := bytes.Repeat([]byte{0x55}, 256)
	bl := NewBuilder(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl.Reset()
		v := bl.CreateByteVector(payload)
		bl.StartTable(4)
		bl.AddUint64(0, uint64(i))
		bl.AddUint32(1, 7)
		bl.AddRef(2, v)
		bl.AddBool(3, true)
		bl.Finish(bl.EndTable())
	}
}

func BenchmarkFieldAccess(b *testing.B) {
	bl := NewBuilder(512)
	v := bl.CreateByteVector(bytes.Repeat([]byte{0x55}, 256))
	bl.StartTable(4)
	bl.AddUint64(0, 99)
	bl.AddUint32(1, 7)
	bl.AddRef(2, v)
	bl.AddBool(3, true)
	bl.Finish(bl.EndTable())
	tab, _ := GetRoot(bl.Bytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tab.Uint64(0) != 99 || tab.Uint32(1) != 7 || len(tab.Bytes(2)) != 256 {
			b.Fatal("bad read")
		}
	}
}

// A vector count is read off the wire before any element, and decoders
// size a slice by it: a count whose elements cannot fit in the rest of
// the buffer must read as 0, while one that fits exactly still reads
// as itself.
func TestVectorLenRejectsCountPastBuffer(t *testing.T) {
	b := NewBuilder(64)
	elem := b.CreateString("x")
	refs := b.CreateRefVector([]uint32{elem})
	b.StartTable(1)
	b.AddRef(0, refs)
	b.Finish(b.EndTable())
	buf := append([]byte(nil), b.Bytes()...)
	tab, err := GetRoot(buf)
	if err != nil || tab.VectorLen(0) != 1 {
		t.Fatalf("built vector: len %d, %v", tab.VectorLen(0), err)
	}
	room := uint32(len(buf)-int(refs)-4) / 4 // elements that still fit
	for _, n := range []uint32{room + 1, 1 << 20, 0x7fffffff, math.MaxUint32} {
		binary.LittleEndian.PutUint32(buf[refs:], n)
		if got := tab.VectorLen(0); got != 0 {
			t.Fatalf("count %#x in a %d-byte buffer: VectorLen %d, want 0", n, len(buf), got)
		}
	}
	binary.LittleEndian.PutUint32(buf[refs:], room)
	if got := tab.VectorLen(0); got != int(room) {
		t.Fatalf("count %d fits the buffer: VectorLen %d", room, got)
	}
}
