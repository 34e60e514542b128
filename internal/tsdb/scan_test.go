package tsdb

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// scanCase is one append pattern for the ordered-scan tests: samples go
// to one series in the order given, and unordered is the bit the write
// head must carry afterwards.
type scanCase struct {
	name      string
	cfg       Config
	ts        []int64
	unordered bool
}

// stepTS returns n timestamps 10 apart, each repeated twice when dup is
// set, with the sample at index bad (if ≥ 0) moved 25 below its place.
func stepTS(n int, dup bool, bad int) []int64 {
	out := make([]int64, n)
	for i := range out {
		j := int64(i)
		if dup {
			j /= 2
		}
		out[i] = 1000 + j*10
	}
	if bad >= 0 {
		out[bad] -= 25
	}
	return out
}

func scanCases() []scanCase {
	var cs []scanCase
	for _, c := range []int{4, 5, 7, 16, 64} {
		cs = append(cs,
			scanCase{fmt.Sprintf("in order, cap %d", c), Config{Capacity: c}, stepTS(3*c+1, true, -1), false},
			scanCase{fmt.Sprintf("one out of order, cap %d", c), Config{Capacity: c}, stepTS(3*c+1, false, 3*c-1), true},
		)
	}
	withJump := append(stepTS(40, false, 30), 10_000, 10_010, 10_020)
	cs = append(cs,
		scanCase{"out of order, overwritten since", Config{Capacity: 8}, stepTS(40, false, 5), true},
		scanCase{"compressed, inversion sealed away", Config{Capacity: 8, Compress: true, MaxChunks: 3}, stepTS(100, false, 10), false},
		scanCase{"compressed, inversion in the head", Config{Capacity: 8, Compress: true, MaxChunks: 3}, stepTS(100, false, 98), true},
		scanCase{"pruned by MaxAge, inversion kept", Config{Capacity: 64, MaxAge: 100}, stepTS(40, false, 36), true},
		scanCase{"pruned by MaxAge, head aged out", Config{Capacity: 64, MaxAge: 100}, withJump, false},
	)
	return cs
}

// fill appends c's samples to a fresh store; the value is the sample's
// index, so every query result tells which samples it saw.
func (c scanCase) fill() *Store {
	s := New(c.cfg)
	for i, ts := range c.ts {
		s.Append(pkey(1, 0), ts, float64(i))
	}
	return s
}

// forceLinear marks every write head of s unordered, turning s into the
// linear-scan reference of the store it copies.
func forceLinear(s *Store) {
	s.walk(func(SeriesKey) bool { return true }, func(_ SeriesKey, se *series) {
		se.mu.Lock()
		se.unordered = true
		se.mu.Unlock()
	})
}

func unorderedBit(s *Store, k SeriesKey) bool {
	se := s.lookup(k)
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.unordered
}

// headInverted reports whether the write head holds a sample below its
// predecessor — what a restore must set the bit from.
func headInverted(s *Store, k SeriesKey) bool {
	se := s.lookup(k)
	se.mu.Lock()
	defer se.mu.Unlock()
	c := len(se.ts)
	for i := 1; i < se.n; i++ {
		if se.ts[(se.head+i)%c] < se.ts[(se.head+i-1)%c] {
			return true
		}
	}
	return false
}

// visited is what one visitLocked call hands its callbacks, in order:
// tier buckets as {start, count}, raw samples as {ts, v}.
type visited struct {
	buckets, samples []Sample
}

// visitOf records se.visitLocked over [from, to].
func visitOf(se *series, from, to int64) visited {
	var out visited
	se.mu.Lock()
	defer se.mu.Unlock()
	se.visitLocked(from, to, func(start int64, count uint32, _, _, _ float64) {
		out.buckets = append(out.buckets, Sample{TS: start, V: float64(count)})
	}, func(ts int64, v float64) {
		out.samples = append(out.samples, Sample{TS: ts, V: v})
	})
	return out
}

// linearVisitOf is the reference visit: tiers and chunks as visitLocked
// walks them, then every write-head slot, filtered.
func linearVisitOf(se *series, from, to int64) visited {
	var out visited
	se.mu.Lock()
	defer se.mu.Unlock()
	if l := se.tiers; l != nil {
		for _, tr := range []*tier{&l.t2, &l.t1} {
			tr.visit(from, to, func(start int64, count uint32, _, _, _ float64) {
				out.buckets = append(out.buckets, Sample{TS: start, V: float64(count)})
			})
		}
	}
	keep := func(ts int64, v float64) {
		if from <= ts && ts <= to {
			out.samples = append(out.samples, Sample{TS: ts, V: v})
		}
	}
	for _, ck := range se.chunks {
		for it := ck.iter(); it.next(); {
			keep(it.ts, it.v)
		}
	}
	for i := 0; i < se.n; i++ {
		j := (se.head + i) % len(se.ts)
		keep(se.ts[j], se.vs[j])
	}
	return out
}

// assertScansMatch checks every window between probe points around the
// data (before it, on and between sample timestamps, past it): the
// series' visit must hand out exactly what a linear scan does, and
// Range, Aggregate, Window, PartialWindow and PartialAggregate on got
// must answer like they do on ref, the same data with every write head
// forced to the linear scan.
func assertScansMatch(t *testing.T, name string, got, ref *Store, tss []int64) {
	t.Helper()
	k := pkey(1, 0)
	se := got.lookup(k)
	lo, hi := tss[0], tss[0]
	for _, ts := range tss {
		lo, hi = min(lo, ts), max(hi, ts)
	}
	probes := []int64{lo - 50, lo - 1}
	for _, ts := range tss {
		if len(probes) < 40 {
			probes = append(probes, ts, ts+1, ts-1)
		}
	}
	probes = append(probes, (lo+hi)/2, hi-1, hi, hi+1, hi+50)
	for _, from := range probes {
		for _, to := range probes {
			if to < from {
				continue
			}
			if v, lin := visitOf(se, from, to), linearVisitOf(se, from, to); !reflect.DeepEqual(v, lin) {
				t.Fatalf("%s: visit of [%d, %d] = %+v, linear scan %+v", name, from, to, v, lin)
			}
			step := max((to-from)/4, 1)
			for q, pair := range [][2]any{
				{got.Range(k, from, to, nil), ref.Range(k, from, to, nil)},
				{fst(got.Aggregate(k, from, to)), fst(ref.Aggregate(k, from, to))},
				{got.Window(k, from, to+1, step), ref.Window(k, from, to+1, step)},
				{got.PartialWindow(k, from, to+1, step), ref.PartialWindow(k, from, to+1, step)},
				{fst(got.PartialAggregate(k, from, to)), fst(ref.PartialAggregate(k, from, to))},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("%s: query %d over [%d, %d]: bounded scan %+v, linear scan %+v", name, q, from, to, pair[0], pair[1])
				}
			}
		}
	}
}

func fst[T any](v T, _ bool) T { return v }

// TestOrderedScanMatchesLinear drives in-order, out-of-order, wrapping,
// compressed-and-sealed and age-pruned append patterns and requires
// every windowed query to answer exactly as a linear scan of the same
// data, with the write head's unordered bit as the pattern leaves it.
func TestOrderedScanMatchesLinear(t *testing.T) {
	for _, c := range scanCases() {
		got, ref := c.fill(), c.fill()
		forceLinear(ref)
		if b := unorderedBit(got, pkey(1, 0)); b != c.unordered {
			t.Fatalf("%s: unordered = %v, want %v", c.name, b, c.unordered)
		}
		assertScansMatch(t, c.name, got, ref, c.ts)
	}
}

// TestSnapshotRestoreSetsUnordered round-trips every pattern through a
// snapshot: the restored head carries the bit its own samples call for
// (set exactly when they hold an inversion) and answers every query
// like the linear scan of the original.
func TestSnapshotRestoreSetsUnordered(t *testing.T) {
	k := pkey(1, 0)
	sawInverted := false
	for _, c := range scanCases() {
		orig, ref := c.fill(), c.fill()
		forceLinear(ref)
		var buf bytes.Buffer
		if _, err := orig.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back := New(c.cfg)
		if err := back.ReadSnapshot(&buf); err != nil {
			t.Fatalf("%s: restore: %v", c.name, err)
		}
		want := headInverted(back, k)
		sawInverted = sawInverted || want
		if b := unorderedBit(back, k); b != want {
			t.Fatalf("%s: restored unordered = %v, head inverted = %v", c.name, b, want)
		}
		assertScansMatch(t, c.name+" (restored)", back, ref, c.ts)
	}
	if !sawInverted {
		t.Fatal("no pattern restored an unordered head")
	}
}
