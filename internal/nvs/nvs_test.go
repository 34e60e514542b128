package nvs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAdmissionControl(t *testing.T) {
	s := NewScheduler()
	ok := []Config{
		{ID: 1, Kind: KindCapacity, Capacity: 0.5},
		{ID: 2, Kind: KindRate, RateRsv: 10e6, RateRef: 20e6}, // 0.5
	}
	if err := s.Admit(ok); err != nil {
		t.Fatalf("exact fit must be admitted: %v", err)
	}
	over := []Config{
		{ID: 1, Kind: KindCapacity, Capacity: 0.6},
		{ID: 2, Kind: KindCapacity, Capacity: 0.5},
	}
	if err := s.Admit(over); err == nil {
		t.Fatal("overbooked set must be rejected")
	}
}

func TestAdmitRejectsInvalid(t *testing.T) {
	s := NewScheduler()
	cases := [][]Config{
		{{ID: 1, Kind: KindCapacity, Capacity: 0}},
		{{ID: 1, Kind: KindCapacity, Capacity: 1.5}},
		{{ID: 1, Kind: KindRate, RateRsv: 0, RateRef: 10}},
		{{ID: 1, Kind: KindRate, RateRsv: 20, RateRef: 10}},
		{{ID: 1, Kind: KindCapacity, Capacity: 0.3}, {ID: 1, Kind: KindCapacity, Capacity: 0.3}},
		{{ID: 1, Kind: SliceKind(9), Capacity: 0.3}},
	}
	for i, c := range cases {
		if err := s.Admit(c); err == nil {
			t.Fatalf("case %d: invalid config admitted", i)
		}
	}
}

// runShares drives the scheduler for n intervals with the given activity
// and returns the fraction of intervals granted to each slice.
func runShares(s *Scheduler, active map[uint32]bool, n int) map[uint32]float64 {
	counts := make(map[uint32]float64)
	for i := 0; i < n; i++ {
		id, ok := s.Pick(active)
		if ok {
			counts[id]++
		}
		s.Update(id, ok, 1e6)
	}
	for k := range counts {
		counts[k] /= float64(n)
	}
	return counts
}

func TestIsolationEqualSlices(t *testing.T) {
	// Two 50% capacity slices, both active: each must receive ~50%.
	s := NewScheduler()
	if err := s.Admit([]Config{
		{ID: 1, Kind: KindCapacity, Capacity: 0.5},
		{ID: 2, Kind: KindCapacity, Capacity: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	got := runShares(s, map[uint32]bool{1: true, 2: true}, 20000)
	for id, share := range got {
		if math.Abs(share-0.5) > 0.02 {
			t.Fatalf("slice %d share %.3f, want ~0.5", id, share)
		}
	}
}

func TestIsolationAsymmetricSlices(t *testing.T) {
	// Fig. 13a time instance 4: 66/34 split must hold under saturation.
	s := NewScheduler()
	if err := s.Admit([]Config{
		{ID: 1, Kind: KindCapacity, Capacity: 0.66},
		{ID: 2, Kind: KindCapacity, Capacity: 0.34},
	}); err != nil {
		t.Fatal(err)
	}
	got := runShares(s, map[uint32]bool{1: true, 2: true}, 30000)
	if math.Abs(got[1]-0.66) > 0.02 || math.Abs(got[2]-0.34) > 0.02 {
		t.Fatalf("shares %.3f/%.3f, want 0.66/0.34", got[1], got[2])
	}
}

func TestSharingWhenIdle(t *testing.T) {
	// Fig. 13b lower graph: when slice 2 idles, slice 1 (66%) takes all.
	s := NewScheduler()
	if err := s.Admit([]Config{
		{ID: 1, Kind: KindCapacity, Capacity: 0.66},
		{ID: 2, Kind: KindCapacity, Capacity: 0.34},
	}); err != nil {
		t.Fatal(err)
	}
	got := runShares(s, map[uint32]bool{1: true, 2: false}, 10000)
	if got[1] < 0.999 {
		t.Fatalf("active slice share %.3f, want ~1.0 (work conservation)", got[1])
	}
}

func TestNoSharingCapsSlice(t *testing.T) {
	// Fig. 13b upper graph: sharing disabled wastes the idle slice's
	// resources — the active slice stays at its reservation.
	s := NewScheduler()
	if err := s.Admit([]Config{
		{ID: 1, Kind: KindCapacity, Capacity: 0.66, NoSharing: true},
		{ID: 2, Kind: KindCapacity, Capacity: 0.34, NoSharing: true},
	}); err != nil {
		t.Fatal(err)
	}
	got := runShares(s, map[uint32]bool{1: true, 2: false}, 30000)
	if math.Abs(got[1]-0.66) > 0.03 {
		t.Fatalf("no-sharing slice got %.3f, want ~0.66", got[1])
	}
}

func TestRateSliceGuarantee(t *testing.T) {
	// A rate slice reserving 25% competes with a 75% capacity slice.
	s := NewScheduler()
	if err := s.Admit([]Config{
		{ID: 1, Kind: KindRate, RateRsv: 5e6, RateRef: 20e6}, // 25 %
		{ID: 2, Kind: KindCapacity, Capacity: 0.75},
	}); err != nil {
		t.Fatal(err)
	}
	// Each granted interval achieves the reference rate (20 Mbps), so the
	// rate slice needs 25% of intervals to meet its 5 Mbps reservation.
	active := map[uint32]bool{1: true, 2: true}
	grants := map[uint32]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		id, ok := s.Pick(active)
		if ok {
			grants[id]++
		}
		s.Update(id, ok, 20e6)
	}
	share1 := float64(grants[1]) / n
	if math.Abs(share1-0.25) > 0.02 {
		t.Fatalf("rate slice share %.3f, want ~0.25", share1)
	}
}

func TestReconfigurationKeepsState(t *testing.T) {
	s := NewScheduler()
	if err := s.Admit([]Config{{ID: 1, Kind: KindCapacity, Capacity: 1.0}}); err != nil {
		t.Fatal(err)
	}
	runShares(s, map[uint32]bool{1: true}, 1000)
	before := s.AvgShare(1)
	if before == 0 {
		t.Fatal("expected nonzero average after activity")
	}
	// Reconfigure with the same slice plus a new one.
	if err := s.Admit([]Config{
		{ID: 1, Kind: KindCapacity, Capacity: 0.5},
		{ID: 2, Kind: KindCapacity, Capacity: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	if s.AvgShare(1) != before {
		t.Fatal("surviving slice state must be retained across Admit")
	}
	if s.AvgShare(2) != 0 {
		t.Fatal("new slice must start fresh")
	}
}

func TestPickNoActive(t *testing.T) {
	s := NewScheduler()
	if err := s.Admit([]Config{{ID: 1, Kind: KindCapacity, Capacity: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Pick(map[uint32]bool{}); ok {
		t.Fatal("no active slice must yield ok=false")
	}
}

// Property: for random admissible capacity-slice sets under saturation,
// every slice's achieved share is at least its reservation (within EWMA
// noise) — the NVS guarantee.
func TestQuickIsolationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		raw := make([]float64, n)
		sum := 0.0
		for i := range raw {
			raw[i] = 0.05 + rng.Float64()
			sum += raw[i]
		}
		cfgs := make([]Config, n)
		active := make(map[uint32]bool, n)
		for i := range raw {
			cfgs[i] = Config{ID: uint32(i), Kind: KindCapacity, Capacity: raw[i] / sum}
			active[uint32(i)] = true
		}
		s := NewScheduler()
		if err := s.Admit(cfgs); err != nil {
			return false
		}
		got := runShares(s, active, 30000)
		for i := range raw {
			want := cfgs[i].Capacity
			if got[uint32(i)] < want-0.04 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualizerIDMapping(t *testing.T) {
	v, err := NewVirtualizer(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := v.PhysicalID(7)
	if err != nil || pid != 37 {
		t.Fatalf("PhysicalID: %d %v", pid, err)
	}
	if _, err := v.PhysicalID(IDSpan); err == nil {
		t.Fatal("virtual id out of range must fail")
	}
	vid, ok := v.VirtualID(37)
	if !ok || vid != 7 {
		t.Fatalf("VirtualID: %d %v", vid, ok)
	}
	if _, ok := v.VirtualID(12); ok {
		t.Fatal("foreign physical id must not map")
	}
}

func TestVirtualizerPaperExample(t *testing.T) {
	// Appendix B example: 100 Mbps BS shared 50/50; tenant creates a
	// 5 Mbps slice over 50 Mbps virtual reference (10% virtual) → maps to
	// 5 Mbps over 100 Mbps physical (5% = 10% of the 50% SLA).
	v, err := NewVirtualizer(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := v.ToPhysical([]Config{{ID: 1, Kind: KindRate, RateRsv: 5e6, RateRef: 50e6}})
	if err != nil {
		t.Fatal(err)
	}
	if phys[0].RateRsv != 5e6 {
		t.Fatalf("reserved rate must pass through: %v", phys[0].RateRsv)
	}
	if phys[0].RateRef != 100e6 {
		t.Fatalf("reference rate must scale to 100 Mbps: %v", phys[0].RateRef)
	}
	d, err := v.PhysicalDemand([]Config{{ID: 1, Kind: KindRate, RateRsv: 5e6, RateRef: 50e6}})
	if err != nil || math.Abs(d-0.05) > 1e-12 {
		t.Fatalf("physical demand %v, want 0.05", d)
	}
}

func TestVirtualizerSLAEnforcement(t *testing.T) {
	v, _ := NewVirtualizer(1, 0.5)
	// 100% virtual → 50% physical: allowed.
	full := []Config{{ID: 0, Kind: KindCapacity, Capacity: 1.0}}
	phys, err := v.ToPhysical(full)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phys[0].Capacity-0.5) > 1e-12 {
		t.Fatalf("physical capacity %v, want 0.5", phys[0].Capacity)
	}
	// 120% virtual: rejected, tenant can never exceed its SLA.
	over := []Config{
		{ID: 0, Kind: KindCapacity, Capacity: 0.7},
		{ID: 1, Kind: KindCapacity, Capacity: 0.5},
	}
	if _, err := v.ToPhysical(over); err == nil {
		t.Fatal("virtual overbooking must be rejected")
	}
}

func TestVirtualizerRoundTrip(t *testing.T) {
	v, _ := NewVirtualizer(2, 0.25)
	virt := []Config{
		{ID: 1, Kind: KindCapacity, Capacity: 0.6},
		{ID: 2, Kind: KindRate, RateRsv: 1e6, RateRef: 10e6},
	}
	phys, err := v.ToPhysical(virt)
	if err != nil {
		t.Fatal(err)
	}
	back := v.ToVirtual(phys)
	if len(back) != len(virt) {
		t.Fatalf("round-trip lost slices: %d", len(back))
	}
	for i := range virt {
		if back[i].ID != virt[i].ID {
			t.Fatalf("id %d != %d", back[i].ID, virt[i].ID)
		}
		if math.Abs(back[i].Capacity-virt[i].Capacity) > 1e-12 {
			t.Fatalf("capacity %v != %v", back[i].Capacity, virt[i].Capacity)
		}
		if virt[i].Kind == KindRate && math.Abs(back[i].RateRef-virt[i].RateRef) > 1e-6 {
			t.Fatalf("rate ref %v != %v", back[i].RateRef, virt[i].RateRef)
		}
	}
	// Foreign slices are invisible.
	if got := v.ToVirtual([]Config{{ID: 5, Kind: KindCapacity, Capacity: 0.1}}); got != nil {
		t.Fatal("foreign slice leaked into virtual view")
	}
}

func TestVirtualizerBadSLA(t *testing.T) {
	for _, q := range []float64{0, -0.5, 1.5} {
		if _, err := NewVirtualizer(0, q); err == nil {
			t.Fatalf("SLA %v must be rejected", q)
		}
	}
}

// Property: two tenants with SLAs q and 1-q can never jointly overbook
// the physical base station if both pass virtual admission control.
func TestQuickTenantsNeverConflict(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := 0.1 + 0.8*rng.Float64()
		vA, _ := NewVirtualizer(0, q)
		vB, _ := NewVirtualizer(1, 1-q)
		mkSet := func(rng *rand.Rand) []Config {
			n := 1 + rng.Intn(3)
			cfgs := make([]Config, n)
			rem := 1.0
			for i := 0; i < n; i++ {
				c := rem * (0.2 + 0.7*rng.Float64())
				if i == n-1 {
					c = rem * 0.9
				}
				cfgs[i] = Config{ID: uint32(i), Kind: KindCapacity, Capacity: c}
				rem -= c
			}
			return cfgs
		}
		dA, err := vA.PhysicalDemand(mkSet(rng))
		if err != nil {
			return false
		}
		dB, err := vB.PhysicalDemand(mkSet(rng))
		if err != nil {
			return false
		}
		return dA+dB <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPickUpdate(b *testing.B) {
	s := NewScheduler()
	cfgs := make([]Config, 8)
	active := make(map[uint32]bool, 8)
	for i := range cfgs {
		cfgs[i] = Config{ID: uint32(i), Kind: KindCapacity, Capacity: 1.0 / 8}
		active[uint32(i)] = true
	}
	if err := s.Admit(cfgs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id, ok := s.Pick(active)
		s.Update(id, ok, 1e6)
	}
}
