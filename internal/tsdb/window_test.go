package tsdb

import (
	"math"
	"testing"
)

// TestWindowWideSpans: window bounds anywhere in the int64 range —
// spans wider than MaxInt64, steps near it, ends at the extremes — give
// a capped, contiguous bucket grid, and Window and PartialWindow place a
// sample at each end of it in the first and the last bucket.
func TestWindowWideSpans(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	for _, c := range []struct {
		from, to, step int64
		nb, end        int64
	}{
		{0, 10, 3, 4, 10},
		{0, 9, 3, 3, 9},
		{0, 10, 0, 0, 10},
		{5, 5, 1, 0, 5},
		{-9e18, 9e18, 1e9, 4096, -9e18 + 4096e9},
		{-9e18, 9e18, 1e16, 1800, 9e18},
		{minI, maxI, 1, 4096, minI + 4096},
		{minI, maxI, maxI, 3, maxI},
		{minI, maxI, 1 << 52, 4096, maxI},
		{minI, maxI, 1 << 51, 4096, 0},
		{maxI - 10, maxI, 4, 3, maxI},
	} {
		nb, end := windowBuckets(c.from, c.to, c.step)
		if nb != c.nb || end != c.end {
			t.Errorf("windowBuckets(%d, %d, %d) = %d, %d; want %d, %d", c.from, c.to, c.step, nb, end, c.nb, c.end)
			continue
		}
		s := New(Config{})
		k := SeriesKey{Agent: 1, Fn: 142, Field: FieldCQI}
		s.Append(k, c.from, 1)
		s.Append(k, end-1, 2)
		win := s.Window(k, c.from, c.to, c.step)
		part := s.PartialWindow(k, c.from, c.to, c.step)
		if int64(len(win)) != nb || int64(len(part)) != nb {
			t.Errorf("%+v: %d window and %d partial buckets, want %d", c, len(win), len(part), nb)
			continue
		}
		if nb == 0 {
			continue
		}
		for i := range win {
			lo, hi := win[i].FromTS, win[i].ToTS
			if part[i].FromTS != lo || part[i].ToTS != hi {
				t.Errorf("%+v: bucket %d is [%d, %d) in Window, [%d, %d) in PartialWindow", c, i, lo, hi, part[i].FromTS, part[i].ToTS)
			}
			if hi <= lo || uint64(hi)-uint64(lo) > uint64(c.step) || (i > 0 && lo != win[i-1].ToTS) {
				t.Errorf("%+v: bucket %d is [%d, %d)", c, i, lo, hi)
			}
		}
		if win[0].FromTS != c.from || win[nb-1].ToTS != end {
			t.Errorf("%+v: grid spans [%d, %d)", c, win[0].FromTS, win[nb-1].ToTS)
		}
		if win[0].Agg.Min != 1 || win[nb-1].Agg.Max != 2 || part[0].Agg.Min != 1 || part[nb-1].Agg.Max != 2 {
			t.Errorf("%+v: end samples not in the end buckets: %+v … %+v", c, win[0].Agg, win[nb-1].Agg)
		}
	}
}

// TestParseMS: the millisecond parameters accept positive counts whose
// nanoseconds fit in an int64, and nothing else.
func TestParseMS(t *testing.T) {
	for _, c := range []struct {
		in string
		ns int64
		ok bool
	}{
		{"1", 1e6, true},
		{"250", 250e6, true},
		{"9223372036854", 9223372036854e6, true}, // MaxInt64 / 1e6
		{"9223372036855", 0, false},
		{"18446744073710", 0, false}, // wrapped to a 448 µs step before
		{"0", 0, false},
		{"-5", 0, false},
		{"", 0, false},
		{"1.5", 0, false},
	} {
		if ns, ok := ParseMS(c.in); ns != c.ns || ok != c.ok {
			t.Errorf("ParseMS(%q) = %d, %v; want %d, %v", c.in, ns, ok, c.ns, c.ok)
		}
	}
}
