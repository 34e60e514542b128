package ran

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
)

// The scale tier: benchmarks the sharded/active-set core against the
// frozen pre-change per-UE loop (baseline.go) on a cells × UEs fleet
// with a configurable idle fraction. The defaults keep `go test -bench`
// runs small; the full footprint (1M UEs on one box) is
//
//	SCALE_CELLS=1000 SCALE_UES_PER_CELL=1000 SCALE_IDLE_PCT=99 \
//	    go test -run xxx -bench 'BenchmarkScale' -benchmem ./internal/ran/
//
//	SCALE_CELLS         cells in the fleet            (default 4)
//	SCALE_UES_PER_CELL  UEs attached per cell         (default 1000)
//	SCALE_IDLE_PCT      % of UEs with sparse traffic  (default 90)
//	SCALE_SHARDS        UE shards per cell            (default 4)
//	SCALE_IDLE_MS       CBR period of the idle cohort (default 200)
//
// Busy UEs run continuously saturating flows; "idle" UEs send one small
// CBR packet every SCALE_IDLE_MS with staggered phases, so at any slot
// well over SCALE_IDLE_PCT% of the fleet is parked.

func scaleEnv(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

type scaleCfg struct {
	cells, uesPerCell, idlePct, shards, idleMS int
}

func scaleCfgFromEnv() scaleCfg {
	return scaleCfg{
		cells:      scaleEnv("SCALE_CELLS", 4),
		uesPerCell: scaleEnv("SCALE_UES_PER_CELL", 1000),
		idlePct:    scaleEnv("SCALE_IDLE_PCT", 90),
		shards:     scaleEnv("SCALE_SHARDS", 4),
		idleMS:     scaleEnv("SCALE_IDLE_MS", 200),
	}
}

// scaleRLCBufBytes sizes the per-UE RLC buffer for scale fleets. The
// package default (3 MB) models one well-provisioned DRB; at a million
// UEs that is neither deployable (gigabytes of queue per cell) nor
// measurable (the busy cohort needs >1000 warm-up slots just to fill
// its buffers, so a bench window measures the fill transient instead of
// drop-tail steady state). 256 KB keeps the same bufferbloat dynamics
// at scale-realistic memory cost, for both engines alike.
const scaleRLCBufBytes = 256 << 10

// scaleSources builds the traffic mix for UE i of a cell; identical for
// the sharded and baseline fleets.
func scaleSources(cfg scaleCfg, i int) []TrafficSource {
	flow := FiveTuple{DstIP: uint32(i + 1), DstPort: 5001, Proto: ProtoUDP}
	if i*100 < cfg.uesPerCell*(100-cfg.idlePct) { // busy cohort
		return []TrafficSource{&Saturating{Flow: flow, PktSize: 1500, RateBytesPerMS: 3000}}
	}
	return []TrafficSource{&CBR{Flow: flow, Size: 172,
		IntervalMS: int64(cfg.idleMS), StartMS: int64(i % cfg.idleMS)}}
}

func heapAllocMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// Fleets are cached across the benchmark framework's b.N escalations:
// building a million-UE fleet is far more expensive than stepping it.
var shardedScale struct {
	key        string
	fleet      *Fleet
	total      int
	bytesPerUE float64
}

func shardedScaleFleet(b *testing.B, cfg scaleCfg) *Fleet {
	key := fmt.Sprintf("%+v", cfg)
	if shardedScale.key == key {
		return shardedScale.fleet
	}
	if shardedScale.fleet != nil {
		shardedScale.fleet.Close()
		shardedScale.fleet = nil
	}
	before := heapAllocMB()
	cells := make([]*Cell, cfg.cells)
	for ci := range cells {
		c, err := NewCellWithOptions(PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7},
			CellOptions{Shards: cfg.shards})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < cfg.uesPerCell; i++ {
			u, err := c.Attach(uint16(i+1), "", "208.95", 20)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range scaleSources(cfg, i) {
				u.AddSource(s)
			}
			u.RLC().MaxBytes = scaleRLCBufBytes
		}
		cells[ci] = c
	}
	f := NewFleet(cells, 0, nil)
	f.Step(2 * cfg.idleMS) // warm up: backlogs filled, wake heap populated
	total := cfg.cells * cfg.uesPerCell
	shardedScale.key, shardedScale.fleet, shardedScale.total = key, f, total
	shardedScale.bytesPerUE = (heapAllocMB() - before) * (1 << 20) / float64(total)
	return f
}

func BenchmarkScaleShardedStep(b *testing.B) {
	cfg := scaleCfgFromEnv()
	f := shardedScaleFleet(b, cfg)
	f.ResetSlotStats()
	b.ResetTimer()
	f.Step(b.N)
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(shardedScale.total)*float64(b.N)/sec, "ue_slots/s")
	}
	_, p99, _ := f.SlotLatencyNS()
	b.ReportMetric(float64(p99), "p99_slot_ns")
	b.ReportMetric(shardedScale.bytesPerUE, "bytes/ue")
}

var baselineScale struct {
	key   string
	cells []*baselineCell
	total int
}

func baselineScaleCells(b *testing.B, cfg scaleCfg) []*baselineCell {
	key := fmt.Sprintf("%+v", cfg)
	if baselineScale.key == key {
		return baselineScale.cells
	}
	cells := make([]*baselineCell, cfg.cells)
	for ci := range cells {
		c, err := newBaselineCell(PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < cfg.uesPerCell; i++ {
			u := c.attach(uint16(i+1), 20)
			for _, s := range scaleSources(cfg, i) {
				u.addSource(s)
			}
			u.rlc.MaxBytes = scaleRLCBufBytes
		}
		cells[ci] = c
	}
	for _, c := range cells {
		c.step(2 * cfg.idleMS)
	}
	baselineScale.key, baselineScale.cells = key, cells
	baselineScale.total = cfg.cells * cfg.uesPerCell
	return cells
}

// BenchmarkScaleBaselineStep is the pre-change per-UE loop on the same
// footprint — the denominator of the scale tier's speedup claim.
func BenchmarkScaleBaselineStep(b *testing.B) {
	cfg := scaleCfgFromEnv()
	cells := baselineScaleCells(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			c.step(1)
		}
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(baselineScale.total)*float64(b.N)/sec, "ue_slots/s")
	}
}

// TestScaleSmoke is the CI-footprint scale check wired into verify.sh:
// 4 cells × 10k UEs at ≥95% idle must step in real time-ish and, above
// all, must not allocate per parked UE — the gate is allocations per
// UE-slot across the whole fleet (workload packet emission included).
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		nCells  = 4
		nUEs    = 10000
		slots   = 400
		maxAPUS = 0.05 // allocs per UE-slot
	)
	cells := make([]*Cell, nCells)
	for ci := range cells {
		c, err := NewCellWithOptions(PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7},
			CellOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nUEs; i++ {
			u, err := c.Attach(uint16(i+1), "", "208.95", 20)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case i < nUEs/100: // 1% saturating
				u.AddSource(&Saturating{Flow: FiveTuple{DstIP: uint32(i + 1)},
					PktSize: 1500, RateBytesPerMS: 3000})
			case i < nUEs/20: // 4% sparse CBR
				u.AddSource(&CBR{Flow: FiveTuple{DstIP: uint32(i + 1)}, Size: 172,
					IntervalMS: 50, StartMS: int64(i % 50)})
			} // 95% source-less
			u.RLC().MaxBytes = scaleRLCBufBytes
		}
		cells[ci] = c
	}
	f := NewFleet(cells, 0, nil)
	defer f.Close()
	f.Step(200) // warm-up: drop-tail steady state and populated wake heaps

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.Step(slots)
	runtime.ReadMemStats(&after)

	ueSlots := float64(nCells*nUEs) * slots
	apus := float64(after.Mallocs-before.Mallocs) / ueSlots
	if apus > maxAPUS {
		t.Fatalf("allocs/UE-slot %.4f exceeds gate %.2f (%d mallocs over %d UE-slots)",
			apus, maxAPUS, after.Mallocs-before.Mallocs, int64(ueSlots))
	}
	for i, c := range cells {
		if c.TotalTxBits() == 0 {
			t.Fatalf("cell %d delivered nothing", i)
		}
	}
	_, p99, _ := f.SlotLatencyNS()
	t.Logf("scale smoke: %d UEs, %.4f allocs/UE-slot, p99 slot %.2fms",
		nCells*nUEs, apus, float64(p99)/1e6)
}
