package metrics

import "testing"

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

// TestPercentileInterpolation pins the linear-interpolation contract on
// small samples, where rank truncation would bias results low.
func TestPercentileInterpolation(t *testing.T) {
	two := []float64{10, 20}
	if v := PercentileFloats(two, 50); v != 15 {
		t.Fatalf("p50 of {10,20} = %v, want 15", v)
	}
	if v := PercentileFloats(two, 75); v != 17.5 {
		t.Fatalf("p75 of {10,20} = %v, want 17.5", v)
	}
	five := []float64{10, 20, 30, 40, 50}
	if v := PercentileFloats(five, 25); v != 20 {
		t.Fatalf("p25 of 10..50 = %v, want 20", v)
	}
}

// TestPercentileFloats checks the float64 percentile the tsdb aggregates use.
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
