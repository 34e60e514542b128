package metrics

import (
	"sort"
	"testing"
	"time"
)

func TestProcessCPUMonotone(t *testing.T) {
	a := ProcessCPU()
	// Burn a little CPU.
	x := 0
	for i := 0; i < 20_000_000; i++ {
		x += i
	}
	_ = x
	b := ProcessCPU()
	if b < a {
		t.Fatalf("CPU time went backwards: %v -> %v", a, b)
	}
	if b == a {
		t.Skip("CPU accounting too coarse on this platform")
	}
}

func TestCPUMeter(t *testing.T) {
	m := StartCPU()
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i
	}
	_ = x
	cpu, wall := m.Sample()
	if cpu <= 0 || wall <= 0 {
		t.Fatalf("cpu %v wall %v", cpu, wall)
	}
	if p := m.NormalizedPercent(); p <= 0 || p > 100*float64(64) {
		t.Fatalf("normalized %v%%", p)
	}
}

func TestPercentile(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p := Percentile(s, 50); p < 49*time.Millisecond || p > 52*time.Millisecond {
		t.Fatalf("p50 %v", p)
	}
	if Percentile(s, 0) != time.Millisecond {
		t.Fatal("p0")
	}
	if Percentile(s, 100) != 100*time.Millisecond {
		t.Fatal("p100")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty")
	}
}

// TestPercentileInterpolation pins the linear-interpolation contract on
// small samples, where rank truncation used to bias results low.
func TestPercentileInterpolation(t *testing.T) {
	two := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if p := Percentile(two, 50); p != 15*time.Millisecond {
		t.Fatalf("p50 of {10,20}ms = %v, want 15ms", p)
	}
	if p := Percentile(two, 75); p != 17500*time.Microsecond {
		t.Fatalf("p75 of {10,20}ms = %v, want 17.5ms", p)
	}
	one := []time.Duration{42 * time.Millisecond}
	for _, p := range []float64{0, 50, 99, 100} {
		if v := Percentile(one, p); v != 42*time.Millisecond {
			t.Fatalf("p%v of single sample = %v", p, v)
		}
	}
	five := []time.Duration{10, 20, 30, 40, 50}
	if p := Percentile(five, 25); p != 20 {
		t.Fatalf("p25 of 10..50 = %v, want 20", p)
	}
	if p := Percentile(five, 90); p != 46 {
		// rank 3.6 → 40 + 0.6*(50-40)
		t.Fatalf("p90 of 10..50 = %v, want 46", p)
	}
}

// TestPercentileFloats mirrors the duration variant's contract for the
// float64 series internal/tsdb aggregates.
func TestPercentileFloats(t *testing.T) {
	if PercentileFloats(nil, 50) != 0 {
		t.Fatal("empty")
	}
	one := []float64{42}
	for _, p := range []float64{0, 50, 100} {
		if v := PercentileFloats(one, p); v != 42 {
			t.Fatalf("p%v of single sample = %v", p, v)
		}
	}
	five := []float64{10, 20, 30, 40, 50}
	if v := PercentileFloats(five, 50); v != 30 {
		t.Fatalf("p50 = %v", v)
	}
	if v := PercentileFloats(five, 90); v != 46 {
		// rank 3.6 → 40 + 0.6*(50-40)
		t.Fatalf("p90 = %v, want 46", v)
	}
	if v := PercentileFloats(five, 0); v != 10 {
		t.Fatalf("p0 = %v", v)
	}
	if v := PercentileFloats(five, 100); v != 50 {
		t.Fatalf("p100 = %v", v)
	}
}

func TestFmtDuration(t *testing.T) {
	if s := FmtDuration(250 * time.Microsecond); s != "250µs" {
		t.Fatal(s)
	}
	if s := FmtDuration(2500 * time.Microsecond); s != "2.50ms" {
		t.Fatal(s)
	}
}
