package ran

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/nvs"
)

// goldenCell builds a deterministic mixed busy/idle workload: saturating
// flows that stop mid-run, Cubic bulk transfers, sparse CBR (mostly
// idle), random-walk channels, permanently idle UEs, and optionally NVS
// slicing and active TC pacers. Two cells built with the same arguments
// carry independent but identically seeded source/channel state.
func goldenCell(t testing.TB, opts CellOptions, withNVS, withTC bool) *Cell {
	t.Helper()
	c, err := NewCellWithOptions(PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7}, opts)
	if err != nil {
		t.Fatal(err)
	}
	const nUE = 96
	for i := 1; i <= nUE; i++ {
		mcs := 4 + (i*7)%24
		u, err := c.Attach(uint16(i), "", "208.95", mcs)
		if err != nil {
			t.Fatal(err)
		}
		flow := FiveTuple{DstIP: uint32(i), DstPort: 5001, Proto: ProtoUDP}
		switch i % 6 {
		case 0: // busy, then idle after StopMS
			u.AddSource(&Saturating{Flow: flow, RateBytesPerMS: 2500,
				StartMS: int64(i % 40), StopMS: int64(300 + i%150)})
		case 1: // self-clocked bulk flow
			u.AddSource(&CubicFlow{Flow: flow, StartMS: int64(i % 50)})
		case 2, 3: // sparse CBR: idle between grid points
			u.AddSource(&CBR{Flow: flow, Size: 172,
				IntervalMS: int64(40 + 20*(i%5)), StartMS: int64(i % 37), ReturnDelayMS: 10})
		case 4: // fading channel + low-rate CBR
			u.AddSource(&CBR{Flow: flow, Size: 600, IntervalMS: 100, StartMS: int64(i % 90)})
			if err := c.SetChannel(uint16(i), &RandomWalkChannel{
				Min: 3, Max: 28, CoherenceMS: 7, Seed: int64(i)}); err != nil {
				t.Fatal(err)
			}
		case 5: // permanently idle
		}
		if withNVS {
			if err := c.AssociateUE(uint16(i), uint32(i%2)); err != nil {
				t.Fatal(err)
			}
		}
		if withTC && i%4 == 1 {
			if err := c.WithUE(uint16(i), func(u *UE) error {
				u.TC().SetPacer(PacerBDP, 4)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if withNVS {
		if err := c.ConfigureSlices([]nvs.Config{
			{ID: 0, Kind: nvs.KindCapacity, Capacity: 0.6, UESched: "pf"},
			{ID: 1, Kind: nvs.KindCapacity, Capacity: 0.4, UESched: "rr"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// requireSameState asserts bit-identical hot state between two cells
// that ran the same workload: clocks, delivered bits, PDCP counters,
// bearer backlogs, and the full SoA row (MCS, PF, EWMAs, fold times,
// wake times, activity) of every UE.
func requireSameState(t *testing.T, a, b *Cell, tag string) {
	t.Helper()
	if a.Now() != b.Now() {
		t.Fatalf("%s: clocks diverge: %d vs %d", tag, a.Now(), b.Now())
	}
	if a.TotalTxBits() != b.TotalTxBits() {
		t.Fatalf("%s: totalTxBits diverge: %d vs %d", tag, a.TotalTxBits(), b.TotalTxBits())
	}
	au, bu := a.UEs(), b.UEs()
	if len(au) != len(bu) {
		t.Fatalf("%s: UE counts diverge: %d vs %d", tag, len(au), len(bu))
	}
	feq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range au {
		x, y := au[i], bu[i]
		if x.RNTI != y.RNTI {
			t.Fatalf("%s: RNTI order diverges at %d: %d vs %d", tag, i, x.RNTI, y.RNTI)
		}
		if x.deliveredBits != y.deliveredBits {
			t.Fatalf("%s: UE %d deliveredBits %d vs %d", tag, x.RNTI, x.deliveredBits, y.deliveredBits)
		}
		if x.pdcp != y.pdcp {
			t.Fatalf("%s: UE %d pdcp %+v vs %+v", tag, x.RNTI, x.pdcp, y.pdcp)
		}
		if x.rlc.Backlog() != y.rlc.Backlog() || x.tc.Backlog() != y.tc.Backlog() {
			t.Fatalf("%s: UE %d backlogs diverge: rlc %d/%d tc %d/%d", tag, x.RNTI,
				x.rlc.Backlog(), y.rlc.Backlog(), x.tc.Backlog(), y.tc.Backlog())
		}
		sx, sy := x.sh, y.sh
		if sx.mcs[x.slot] != sy.mcs[y.slot] {
			t.Fatalf("%s: UE %d MCS %d vs %d", tag, x.RNTI, sx.mcs[x.slot], sy.mcs[y.slot])
		}
		if !feq(sx.pf[x.slot], sy.pf[y.slot]) {
			t.Fatalf("%s: UE %d pf %v vs %v", tag, x.RNTI, sx.pf[x.slot], sy.pf[y.slot])
		}
		if !feq(sx.drainEWMA[x.slot], sy.drainEWMA[y.slot]) {
			t.Fatalf("%s: UE %d drainEWMA %v vs %v", tag, x.RNTI, sx.drainEWMA[x.slot], sy.drainEWMA[y.slot])
		}
		if !feq(sx.thrBps[x.slot], sy.thrBps[y.slot]) {
			t.Fatalf("%s: UE %d thrBps %v vs %v", tag, x.RNTI, sx.thrBps[x.slot], sy.thrBps[y.slot])
		}
		if sx.ewmaAt[x.slot] != sy.ewmaAt[y.slot] {
			t.Fatalf("%s: UE %d ewmaAt %d vs %d", tag, x.RNTI, sx.ewmaAt[x.slot], sy.ewmaAt[y.slot])
		}
		if sx.nextWake[x.slot] != sy.nextWake[y.slot] {
			t.Fatalf("%s: UE %d nextWake %d vs %d", tag, x.RNTI, sx.nextWake[x.slot], sy.nextWake[y.slot])
		}
		if (sx.activePos[x.slot] >= 0) != (sy.activePos[y.slot] >= 0) {
			t.Fatalf("%s: UE %d activity diverges: %v vs %v", tag, x.RNTI,
				sx.activePos[x.slot] >= 0, sy.activePos[y.slot] >= 0)
		}
	}
}

// mutateBoth applies the same control-plane sequence to both cells:
// detach, re-attach (exercising slot reuse), mid-run traffic adds, TC
// reconfiguration of a parked UE, and a slicing toggle.
func mutateBoth(t *testing.T, phase int, cells ...*Cell) {
	t.Helper()
	for _, c := range cells {
		switch phase {
		case 0:
			for _, r := range []uint16{6, 12, 95} { // idle and busy victims
				if err := c.Detach(r); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			for _, r := range []uint16{200, 201} {
				if _, err := c.Attach(r, "", "208.95", 15); err != nil {
					t.Fatal(err)
				}
				if err := c.AddTraffic(r, &CBR{Flow: FiveTuple{DstIP: uint32(r)},
					Size: 300, IntervalMS: 30, StartMS: c.Now() + 5}); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // poke a parked idle UE with a TC mutation
			if err := c.WithUE(11, func(u *UE) error {
				u.TC().Activate()
				u.TC().SetPacer(PacerBDP, 6)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		case 3:
			c.DisableSlicing()
		}
	}
}

// TestGoldenShardedVsDense pins the tentpole equivalence claim: the
// wakeup-heap engine and the exhaustive-scan reference engine produce
// bit-identical trajectories (delivered bits, EWMAs, PF state, MCS,
// park/wake times) for mixed busy/idle workloads, across slicing modes,
// TC pacers, shard counts and mid-run attach/detach/control churn.
func TestGoldenShardedVsDense(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		nvs    bool
		tc     bool
	}{
		{"1shard-pf", 1, false, false},
		{"1shard-nvs-tc", 1, true, true},
		{"4shard-pf-tc", 4, false, true},
		{"4shard-nvs", 4, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sharded := goldenCell(t, CellOptions{Shards: tc.shards}, tc.nvs, tc.tc)
			dense := goldenCell(t, CellOptions{Shards: tc.shards, Dense: true}, tc.nvs, tc.tc)
			// Uneven chunk sizes so comparisons land mid-wake-cycle.
			for phase, chunk := range []int{1, 7, 250, 601, 1000, 137} {
				sharded.Step(chunk)
				dense.Step(chunk)
				requireSameState(t, sharded, dense, tc.name)
				if phase < 4 {
					mutateBoth(t, phase, sharded, dense)
					requireSameState(t, sharded, dense, tc.name+"-postmutate")
				}
			}
		})
	}
}

// baselineUECase sets up UE i of a TestGoldenBaselineDeliveredBits
// input: its MCS, a constructor for its traffic sources (called once per
// engine, so the two never share source state) and, optionally, one for a
// fading channel.
type baselineUECase func(i int) (mcs int, sources func() []TrafficSource, channel func() ChannelProcess)

// TestGoldenBaselineDeliveredBits compares the sharded core against the
// frozen pre-change per-UE loop (baseline.go). The EWMA representations
// legitimately differ (eager per-slot decay vs closed-form folding), but
// for TC-free workloads — where EWMAs feed no behavior — the delivered
// traffic must match exactly. The inputs make the PF pick order matter:
// a many-UE mix where every chunk is one RB, a few UEs on a wide NR cell
// where chunks span several RBs, and a cell of identical UEs where every
// first pick of a TTI is a tie.
func TestGoldenBaselineDeliveredBits(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  PHYConfig
		nUE  int
		ue   baselineUECase
	}{
		{"lte-64ue-mixed", PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7}, 64, mixedBaselineUE},
		{"nr-6ue-chunks", PHYConfig{RAT: RAT5G, NumRB: 106, Band: 78}, 6, func(i int) (int, func() []TrafficSource, func() ChannelProcess) {
			flow := FiveTuple{DstIP: uint32(i), DstPort: 5001, Proto: ProtoUDP}
			srcs := func() []TrafficSource {
				switch i % 3 {
				case 0:
					return []TrafficSource{&Saturating{Flow: flow, RateBytesPerMS: 4000 + 1500*i,
						StartMS: int64(7 * i), StopMS: int64(900 + 200*i)}}
				case 1:
					return []TrafficSource{&CubicFlow{Flow: flow, StartMS: int64(11 * i)}}
				default:
					return []TrafficSource{&CBR{Flow: flow, Size: 1200, IntervalMS: 3, StartMS: int64(i)},
						&Saturating{Flow: flow, RateBytesPerMS: 3000, StartMS: 400, StopMS: 1600}}
				}
			}
			var ch func() ChannelProcess
			if i%2 == 0 {
				ch = func() ChannelProcess {
					return &RandomWalkChannel{Min: 5, Max: 27, CoherenceMS: 7, Seed: int64(i)}
				}
			}
			return 6 + 4*i, srcs, ch
		}},
		{"lte-16ue-ties", PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7}, 16, func(i int) (int, func() []TrafficSource, func() ChannelProcess) {
			return 20, func() []TrafficSource {
				return []TrafficSource{&Saturating{Flow: FiveTuple{DstIP: 1}, RateBytesPerMS: 3000}}
			}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cell, err := NewCell(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := newBaselineCell(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= tc.nUE; i++ {
				mcs, srcs, ch := tc.ue(i)
				u, err := cell.Attach(uint16(i), "", "208.95", mcs)
				if err != nil {
					t.Fatal(err)
				}
				bu := base.attach(uint16(i), mcs)
				if srcs != nil {
					for _, s := range srcs() {
						u.AddSource(s)
					}
					for _, s := range srcs() {
						bu.addSource(s)
					}
				}
				if ch != nil {
					if err := cell.SetChannel(uint16(i), ch()); err != nil {
						t.Fatal(err)
					}
					bu.channel = ch()
				}
			}
			cell.Step(2500)
			base.step(2500)
			if cell.TotalTxBits() != base.totalTxBits {
				t.Fatalf("totalTxBits diverge: sharded %d vs baseline %d", cell.TotalTxBits(), base.totalTxBits)
			}
			for _, bu := range base.ues {
				if got := cell.UEDeliveredBits(bu.rnti); got != bu.deliveredBits {
					t.Fatalf("UE %d deliveredBits: sharded %d vs baseline %d", bu.rnti, got, bu.deliveredBits)
				}
				if u := cell.UE(bu.rnti); u.PDCPStats() != bu.pdcp {
					t.Fatalf("UE %d pdcp: sharded %+v vs baseline %+v", bu.rnti, u.PDCPStats(), bu.pdcp)
				}
			}
		})
	}
}

// mixedBaselineUE is the 64-UE LTE mix: saturating flows that stop,
// Cubic flows, sparse CBR, and idle UEs, some on fading channels.
func mixedBaselineUE(i int) (int, func() []TrafficSource, func() ChannelProcess) {
	mcs := 4 + (i*5)%24
	flow := FiveTuple{DstIP: uint32(i), DstPort: 5001, Proto: ProtoUDP}
	switch i % 4 {
	case 0:
		return mcs, func() []TrafficSource {
			return []TrafficSource{&Saturating{Flow: flow, RateBytesPerMS: 2000,
				StartMS: int64(i % 30), StopMS: int64(400 + i%90)}}
		}, nil
	case 1:
		return mcs, func() []TrafficSource {
			return []TrafficSource{&CubicFlow{Flow: flow, StartMS: int64(i % 40)}}
		}, nil
	case 2:
		return mcs, func() []TrafficSource {
			return []TrafficSource{&CBR{Flow: flow, Size: 172, IntervalMS: int64(20 + 10*(i%7)), StartMS: int64(i % 23)}}
		}, nil
	default: // idle, some with fading channels
		if i%8 != 3 {
			return mcs, nil, nil
		}
		return mcs, nil, func() ChannelProcess {
			return &RandomWalkChannel{Min: 3, Max: 28, CoherenceMS: 5, Seed: int64(i)}
		}
	}
}

// TestIdleUEsLeaveActiveSet asserts the active-set semantics directly:
// with sparse CBR traffic the worked set shrinks to near zero between
// grid points, and a permanently idle UE is visited exactly never.
func TestIdleUEsLeaveActiveSet(t *testing.T) {
	c := mustCell(t, PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7})
	idle, _ := c.Attach(1, "", "208.95", 20)
	cbr, _ := c.Attach(2, "", "208.95", 20)
	cbr.AddSource(&CBR{Flow: FiveTuple{DstIP: 2}, Size: 100, IntervalMS: 500, StartMS: 100})
	c.Step(50) // before StartMS: both parked
	sh1, sh2 := idle.sh, cbr.sh
	if sh1.activePos[idle.slot] >= 0 {
		t.Fatal("source-less UE still in active set")
	}
	if sh2.activePos[cbr.slot] >= 0 {
		t.Fatal("pre-start CBR UE still in active set")
	}
	if w := sh2.nextWake[cbr.slot]; w != 100 {
		t.Fatalf("CBR wake at %d, want 100", w)
	}
	c.Step(100) // across the first grid point: packet emitted and drained
	if cbr.DeliveredBits() != 800 {
		t.Fatalf("CBR delivered %d bits, want 800", cbr.DeliveredBits())
	}
	if sh2.activePos[cbr.slot] >= 0 {
		t.Fatal("CBR UE should be parked again after draining")
	}
	if idle.DeliveredBits() != 0 || sh1.nextWake[idle.slot] != -1 {
		t.Fatal("idle UE was disturbed")
	}
}

// TestDetachIsSwapRemove pins the O(1) detach + slot-reuse behavior and
// the lazily sorted UEs() view.
func TestDetachIsSwapRemove(t *testing.T) {
	c := mustCell(t, PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7})
	for i := 1; i <= 100; i++ {
		if _, err := c.Attach(uint16(i), "", "208.95", 10); err != nil {
			t.Fatal(err)
		}
	}
	sh := c.UE(1).sh
	slots := len(sh.ues)
	for i := 1; i <= 100; i += 2 {
		if err := c.Detach(uint16(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.NumUEs(); got != 50 {
		t.Fatalf("NumUEs %d, want 50", got)
	}
	ues := c.UEs()
	for i := 1; i < len(ues); i++ {
		if ues[i-1].RNTI >= ues[i].RNTI {
			t.Fatalf("UEs() not sorted after churn: %d >= %d", ues[i-1].RNTI, ues[i].RNTI)
		}
	}
	if c.UE(1) != nil {
		t.Fatal("detached UE still resolvable")
	}
	// Freed slots are recycled: re-attaching must not grow the arrays.
	for i := 1; i <= 100; i += 2 {
		if _, err := c.Attach(uint16(i), "", "208.95", 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sh.ues); got != slots {
		t.Fatalf("slot arrays grew %d -> %d despite free list", slots, got)
	}
	if err := c.Detach(999); err == nil {
		t.Fatal("detaching unknown RNTI must fail")
	}
}

// TestControlNotStarvedByLongStep is the regression test for the old
// Step(n) holding the cell mutex for the whole n-TTI loop: control calls
// must get the lock between TTIs, so WithUE completes while a long Step
// is still running.
func TestControlNotStarvedByLongStep(t *testing.T) {
	c := mustCell(t, PHYConfig{RAT: RAT5G, NumRB: 106, Band: 78})
	for i := 1; i <= 64; i++ {
		u, _ := c.Attach(uint16(i), "", "208.95", 20)
		u.AddSource(&Saturating{Flow: FiveTuple{DstIP: uint32(i)}, RateBytesPerMS: 1 << 16})
	}
	c.Step(10) // warm up backlogs so every TTI does real work

	var stepDone atomic.Bool
	go func() {
		c.Step(5000)
		stepDone.Store(true)
	}()
	duringStep := 0
	var worst time.Duration
	for !stepDone.Load() {
		t0 := time.Now()
		if err := c.WithUE(1, func(u *UE) error { _ = u.MACStats(); return nil }); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
		if !stepDone.Load() {
			duringStep++
		}
		time.Sleep(time.Millisecond)
	}
	if duringStep < 3 {
		t.Fatalf("only %d control calls completed while Step ran (starved); worst wait %v",
			duringStep, worst)
	}
	t.Logf("%d control calls during Step, worst wait %v", duringStep, worst)
}

// TestStepConcurrencyStress races Step against attach/detach, slicing
// reconfiguration, traffic adds and stats snapshots. Run with -race it
// is the memory-safety proof for the per-TTI locking scheme.
func TestStepConcurrencyStress(t *testing.T) {
	c := mustCell(t, PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7})
	for i := 1; i <= 24; i++ {
		u, _ := c.Attach(uint16(i), "", "208.95", 15)
		if i%3 == 0 {
			u.AddSource(&Saturating{Flow: FiveTuple{DstIP: uint32(i)}, RateBytesPerMS: 2000})
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // slot loop
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Step(10)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnti := uint16(1000 + 100*g)
			for i := 0; i < 150; i++ {
				switch i % 5 {
				case 0:
					if _, err := c.Attach(rnti, "", "208.95", 12); err == nil {
						_ = c.AddTraffic(rnti, &CBR{Flow: FiveTuple{DstIP: uint32(rnti)},
							Size: 200, IntervalMS: 10})
					}
				case 1:
					_ = c.Detach(rnti)
				case 2:
					_ = c.WithUE(uint16(1+i%24), func(u *UE) error {
						_ = u.MACStats()
						_ = u.TC().Stats()
						return nil
					})
				case 3:
					_ = c.ConfigureSlices([]nvs.Config{
						{ID: 0, Kind: nvs.KindCapacity, Capacity: 1.0, UESched: "pf"}})
					c.DisableSlicing()
				case 4:
					_ = c.UEs()
					_ = c.UEDeliveredBits(uint16(1 + i%24))
					_ = c.TotalTxBits()
				}
			}
		}(g)
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestFleetStepsCellsInLockstep covers the multi-cell worker pool:
// lockstep clocks, traffic progress in every cell, latency stats, and
// the inline single-worker path.
func TestFleetStepsCellsInLockstep(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cells := make([]*Cell, 5)
		for i := range cells {
			c := mustCell(t, PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7})
			u, _ := c.Attach(1, "", "208.95", 20)
			u.AddSource(&Saturating{Flow: FiveTuple{DstIP: 1}, RateBytesPerMS: 5000})
			cells[i] = c
		}
		var hookCalls int64
		f := NewFleet(cells, workers, func(now int64) { hookCalls++ })
		f.Step(40)
		for i, c := range cells {
			if c.Now() != 40 {
				t.Fatalf("workers=%d: cell %d at t=%d, want 40", workers, i, c.Now())
			}
			if c.TotalTxBits() == 0 {
				t.Fatalf("workers=%d: cell %d delivered nothing", workers, i)
			}
		}
		if f.Now() != 40 || hookCalls != 40 {
			t.Fatalf("workers=%d: fleet now %d hooks %d, want 40/40", workers, f.Now(), hookCalls)
		}
		p50, p99, max := f.SlotLatencyNS()
		if p50 <= 0 || p99 < p50 || max < p99 {
			t.Fatalf("workers=%d: latency stats inconsistent: p50=%d p99=%d max=%d", workers, p50, p99, max)
		}
		f.ResetSlotStats()
		if _, _, m := f.SlotLatencyNS(); m != 0 {
			t.Fatalf("workers=%d: stats survived reset", workers)
		}
		f.Close()
		f.Close() // idempotent
	}
}
