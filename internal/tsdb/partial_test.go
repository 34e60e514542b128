package tsdb

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

// partialStream is the deterministic integer-valued stream the golden
// tests run on: integer values keep float summation order-independent
// (every partial sum stays below 2^53), so a federated merge must match
// the single-store aggregate bit-for-bit on count/min/max/mean.
func partialStream(f func(agent uint32, ue uint16, ts int64, v float64)) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for step := int64(0); step < 400; step++ {
		ts := int64(1_000_000_000) + step*10_000_000 // 10 ms cadence
		for agent := uint32(1); agent <= 12; agent++ {
			for ue := uint16(0); ue < 3; ue++ {
				v := float64(next() % 1_000_000) // integer-valued
				f(agent, ue, ts, v)
			}
		}
	}
}

func pkey(agent uint32, ue uint16) SeriesKey {
	return SeriesKey{Agent: agent, Fn: 142, UE: ue, Field: FieldThroughputBps}
}

// p95BucketDistance returns how many log-gamma buckets apart two
// positive values land — the acceptance metric for merged percentiles.
func p95BucketDistance(a, b float64) int {
	if a <= 0 || b <= 0 {
		if a == b {
			return 0
		}
		return 1 << 20
	}
	d := histIdx(a) - histIdx(b)
	if d < 0 {
		d = -d
	}
	return d
}

// TestPartialGoldenFederated is the golden federated-query test: the
// same stream ingested by one store and sharded over three stores (by
// agent, as the consistent-hash ring does) must produce identical
// count/min/max/mean/first_ts/last_ts after the partial merge, with p95
// within one histogram bucket of the exact single-store value.
func TestPartialGoldenFederated(t *testing.T) {
	single := New(Config{})
	shards := []*Store{New(Config{}), New(Config{}), New(Config{})}
	partialStream(func(agent uint32, ue uint16, ts int64, v float64) {
		single.Append(pkey(agent, ue), ts, v)
		shards[int(agent)%3].Append(pkey(agent, ue), ts, v)
	})

	from, to := int64(0), int64(1)<<62

	// Per-series: the owning shard's partial must finish to the exact
	// single-store aggregate (one shard holds all of a series' samples,
	// so even the percentiles only differ by bucket rounding).
	for agent := uint32(1); agent <= 12; agent++ {
		for ue := uint16(0); ue < 3; ue++ {
			k := pkey(agent, ue)
			want, ok := single.Aggregate(k, from, to)
			if !ok {
				t.Fatalf("agent %d ue %d: no single aggregate", agent, ue)
			}
			p, ok := shards[int(agent)%3].PartialAggregate(k, from, to)
			if !ok {
				t.Fatalf("agent %d ue %d: no shard partial", agent, ue)
			}
			got, _ := p.Finish()
			assertAggMatch(t, want, got)
		}
	}

	// Fleet-wide: merge every series partial from every shard and
	// compare against the same merge over the single store — the shape
	// the root's federated /tsdb/query computes.
	var fedP, singleP PartialAgg
	for agent := uint32(1); agent <= 12; agent++ {
		for ue := uint16(0); ue < 3; ue++ {
			k := pkey(agent, ue)
			if p, ok := shards[int(agent)%3].PartialAggregate(k, from, to); ok {
				fedP.Merge(&p)
			}
			if p, ok := single.PartialAggregate(k, from, to); ok {
				singleP.Merge(&p)
			}
		}
	}
	fed, _ := fedP.Finish()
	base, _ := singleP.Finish()
	assertAggMatch(t, base, fed)
	if fed.Count != 400*12*3 {
		t.Fatalf("fleet count %d, want %d", fed.Count, 400*12*3)
	}
}

func assertAggMatch(t *testing.T, want, got Agg) {
	t.Helper()
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("count/min/max mismatch: got %+v want %+v", got, want)
	}
	if got.Mean != want.Mean {
		t.Fatalf("mean mismatch: got %v want %v", got.Mean, want.Mean)
	}
	if got.FirstTS != want.FirstTS || got.LastTS != want.LastTS {
		t.Fatalf("ts bounds mismatch: got %+v want %+v", got, want)
	}
	if d := p95BucketDistance(got.P95, want.P95); d > 1 {
		t.Fatalf("p95 %v vs exact %v: %d buckets apart", got.P95, want.P95, d)
	}
}

// TestPartialWindowMerge pins the windowed form: aligned shard windows
// merged bucket-by-bucket equal the single-store windows.
func TestPartialWindowMerge(t *testing.T) {
	single := New(Config{})
	shards := []*Store{New(Config{}), New(Config{}), New(Config{})}
	partialStream(func(agent uint32, ue uint16, ts int64, v float64) {
		single.Append(pkey(agent, ue), ts, v)
		shards[int(agent)%3].Append(pkey(agent, ue), ts, v)
	})

	from := int64(1_000_000_000)
	to := from + 400*10_000_000
	step := int64(500_000_000) // 8 windows

	var fed []PartialBucket
	for agent := uint32(1); agent <= 12; agent++ {
		for ue := uint16(0); ue < 3; ue++ {
			w := shards[int(agent)%3].PartialWindow(pkey(agent, ue), from, to, step)
			fed = MergePartialWindows(fed, w)
		}
	}
	var base []PartialBucket
	for agent := uint32(1); agent <= 12; agent++ {
		for ue := uint16(0); ue < 3; ue++ {
			base = MergePartialWindows(base, single.PartialWindow(pkey(agent, ue), from, to, step))
		}
	}
	if len(fed) != len(base) || len(fed) != 8 {
		t.Fatalf("window counts: fed %d base %d", len(fed), len(base))
	}
	for i := range fed {
		fa, fok := fed[i].Agg.Finish()
		ba, bok := base[i].Agg.Finish()
		if fok != bok {
			t.Fatalf("bucket %d: presence mismatch", i)
		}
		if !fok {
			continue
		}
		if fed[i].FromTS != base[i].FromTS || fed[i].ToTS != base[i].ToTS {
			t.Fatalf("bucket %d: bounds mismatch", i)
		}
		assertAggMatch(t, ba, fa)
	}
}

// TestPartialSingleSeriesExactPercentile checks that a partial built
// from one series stays within a bucket of the exact raw-sorted
// percentile Aggregate computes, and within the histogram's documented
// relative error of the true value.
func TestPartialSingleSeriesExactPercentile(t *testing.T) {
	s := New(Config{})
	k := pkey(1, 0)
	for i := int64(0); i < 1000; i++ {
		s.Append(k, 1_000_000_000+i*1_000_000, float64(i*i%70001)+1)
	}
	want, _ := s.Aggregate(k, 0, 1<<62)
	p, _ := s.PartialAggregate(k, 0, 1<<62)
	got, _ := p.Finish()
	for _, pair := range [][2]float64{{got.P50, want.P50}, {got.P95, want.P95}, {got.P99, want.P99}} {
		if d := p95BucketDistance(pair[0], pair[1]); d > 1 {
			t.Fatalf("percentile %v vs exact %v: %d buckets apart", pair[0], pair[1], d)
		}
		if rel := math.Abs(pair[0]-pair[1]) / pair[1]; rel > histGamma-1 {
			t.Fatalf("percentile %v vs exact %v: relative error %.3f", pair[0], pair[1], rel)
		}
	}
}

// TestPartialNegativeAndZero covers the histogram's sign split: the
// value walk must cross negative buckets (descending index), zeros,
// then positive buckets.
func TestPartialNegativeAndZero(t *testing.T) {
	var p PartialAgg
	vals := []float64{-100, -10, -1, 0, 0, 1, 10, 100, 1000}
	for i, v := range vals {
		p.observe(int64(i), v)
	}
	a, ok := p.Finish()
	if !ok || a.Count != len(vals) {
		t.Fatalf("finish: %+v ok=%v", a, ok)
	}
	if a.Min != -100 || a.Max != 1000 {
		t.Fatalf("min/max: %+v", a)
	}
	if a.P50 != 0 {
		t.Fatalf("p50 over symmetric-ish set with zero median: got %v", a.P50)
	}
	if a.P99 <= 100 {
		t.Fatalf("p99 should land in the top bucket, got %v", a.P99)
	}
}

// TestPartialJSONRoundTrip pins the wire form: a partial marshalled to
// JSON and back finishes to the identical Agg (the federation root
// consumes exactly this round trip from /tsdb/partial).
func TestPartialJSONRoundTrip(t *testing.T) {
	s := New(Config{})
	k := pkey(3, 1)
	for i := int64(0); i < 500; i++ {
		s.Append(k, 1_000_000_000+i*1_000_000, float64(i%977))
	}
	p, _ := s.PartialAggregate(k, 0, 1<<62)
	raw, err := json.Marshal(&p)
	if err != nil {
		t.Fatal(err)
	}
	var back PartialAgg
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	a1, _ := p.Finish()
	a2, _ := back.Finish()
	if a1 != a2 {
		t.Fatalf("round trip changed the aggregate:\n before %+v\n after  %+v", a1, a2)
	}
}

// TestPartialTierDegradation checks a compressed series whose range is
// served partly from tiers still merges count/min/max/mean exactly and
// falls back to the documented percentile approximation when no raw
// samples are in range.
func TestPartialTierDegradation(t *testing.T) {
	s := New(Config{Capacity: 64, Compress: true, MaxChunks: 2})
	k := pkey(7, 0)
	for i := int64(0); i < 2000; i++ {
		s.Append(k, 1_000_000_000+i*100_000_000, float64(i%500))
	}
	want, ok := s.Aggregate(k, 0, 1<<62)
	if !ok {
		t.Fatal("no aggregate")
	}
	p, ok := s.PartialAggregate(k, 0, 1<<62)
	if !ok {
		t.Fatal("no partial")
	}
	got, _ := p.Finish()
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || got.Mean != want.Mean {
		t.Fatalf("tier merge mismatch:\n got  %+v\n want %+v", got, want)
	}
}

// TestPartialInfinitePercentile pins the ±Inf buckets: +Inf lands in
// the top finite bucket, whose representative clamps to Max, so a p99
// that the exact aggregate answers with +Inf is +Inf in the partial too
// (and -Inf symmetrically at the bottom).
func TestPartialInfinitePercentile(t *testing.T) {
	s := New(Config{})
	up, down := pkey(1, 0), pkey(1, 1)
	for i := int64(0); i < 9; i++ {
		s.Append(up, i, float64(5+i))
		s.Append(down, i, -float64(5+i))
	}
	s.Append(up, 9, math.Inf(1))
	s.Append(down, 9, math.Inf(-1))
	exact, _ := s.Aggregate(up, 0, 9)
	p, _ := s.PartialAggregate(up, 0, 9)
	if got, _ := p.Finish(); !math.IsInf(exact.P99, 1) || got.P99 != exact.P99 {
		t.Fatalf("{5…13, +Inf}: partial p99 %v, exact %v", got.P99, exact.P99)
	}
	p, _ = s.PartialAggregate(down, 0, 9)
	if got := p.quantile(0); !math.IsInf(got, -1) {
		t.Fatalf("{-13…-5, -Inf}: partial p0 %v, want -Inf", got)
	}
	if histIdx(math.Inf(1)) != histMaxIdx || histIdx(math.MaxFloat64) != histMaxIdx ||
		histIdx(math.SmallestNonzeroFloat64) != histMinIdx || histIdx(1e-310) != histMinIdx {
		t.Fatalf("finite range: Inf %d Max %d subnormals %d %d, want [%d, %d]", histIdx(math.Inf(1)), histIdx(math.MaxFloat64),
			histIdx(math.SmallestNonzeroFloat64), histIdx(1e-310), histMinIdx, histMaxIdx)
	}
	// The wire contract: the root validates shard answers against this
	// range, so it must not depend on the platform's math.Log.
	if histMinIdx != -9205 || histMaxIdx != 9222 {
		t.Fatalf("finite range [%d, %d], want [-9205, 9222]", histMinIdx, histMaxIdx)
	}
}

// TestPartialValidate accepts what stores produce and rejects partials
// no store could have produced — the checks the federation root runs on
// every shard answer before merging it.
func TestPartialValidate(t *testing.T) {
	s := New(Config{})
	k := pkey(2, 0)
	for i := int64(0); i < 300; i++ {
		s.Append(k, i, float64(i%17)-8)
	}
	good, _ := s.PartialAggregate(k, 0, 1<<62)
	if err := good.Validate(); err != nil {
		t.Fatalf("store partial rejected: %v", err)
	}
	var empty PartialAgg
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty partial rejected: %v", err)
	}
	for name, mut := range map[string]func(p *PartialAgg){
		"lo far below":      func(p *PartialAgg) { p.Pos.Lo = -1e9 },
		"lo far above":      func(p *PartialAgg) { p.Neg.Lo = 1e9 },
		"run past the top":  func(p *PartialAgg) { p.Pos.Lo = int64(histMaxIdx) - 1 },
		"negative count":    func(p *PartialAgg) { p.Pos.N[0], p.Pos.N[1] = -1, p.Pos.N[1]+p.Pos.N[0]+1 },
		"counts exceed raw": func(p *PartialAgg) { p.Neg.N[0] += 1 << 40 },
		"counts short":      func(p *PartialAgg) { p.RawN++; p.Count++ },
		"raw above count":   func(p *PartialAgg) { p.RawN = p.Count + 1 },
		"negative zeros":    func(p *PartialAgg) { p.Zeros = -1 },
		"negative count sum": func(p *PartialAgg) {
			p.Count, p.RawN, p.Zeros, p.Pos, p.Neg = -1, -1, 0, Hist{}, Hist{}
		},
	} {
		p := good
		p.Pos.N = append([]int64(nil), good.Pos.N...)
		p.Neg.N = append([]int64(nil), good.Neg.N...)
		mut(&p)
		if err := p.Validate(); !errors.Is(err, ErrBadPartial) {
			t.Errorf("%s: Validate = %v, want ErrBadPartial", name, err)
		}
	}
}

// foldStores builds the stores the fold-in-place tests run on: an
// uncompressed ring and a compressed store whose oldest data has folded
// into tiers, both fed the same integer-valued samples (negatives and
// zeros included) for 4 agents × 3 UEs, 400 samples 10 ms apart.
func foldStores() []*Store {
	ring := New(Config{})
	comp := New(Config{Capacity: 32, Compress: true, MaxChunks: 2})
	partialStream(func(agent uint32, ue uint16, ts int64, v float64) {
		if agent > 4 {
			return
		}
		v = float64(int64(v)%2001) - 1000
		ring.Append(pkey(agent, ue), ts, v)
		comp.Append(pkey(agent, ue), ts, v)
	})
	return []*Store{ring, comp}
}

// TestFoldPartialWindowMatchesMerge pins the relation the federation
// handler and the benchmark oracle rely on: folding every series into
// one bucket list equals merging one PartialWindow per series, field
// for field, over windows with raw data, empty buckets, and ranges the
// compressed store serves from tiers alone.
func TestFoldPartialWindowMatchesMerge(t *testing.T) {
	for si, s := range foldStores() {
		keys := s.Keys(func(SeriesKey) bool { return true })
		if len(keys) != 12 {
			t.Fatalf("store %d: %d keys", si, len(keys))
		}
		for _, win := range [][3]int64{
			{1_000_000_000, 5_000_000_000, 500_000_000}, // all data, 8 buckets
			{4_500_000_000, 6_500_000_000, 250_000_000}, // tail, then empty buckets
			{0, 2_000_000_000, 1_000_000_000},           // tier-only on the compressed store
			{7_000_000_000, 9_000_000_000, 1_000_000_000},
		} {
			from, to, step := win[0], win[1], win[2]
			var merged []PartialBucket
			for _, k := range keys {
				merged = MergePartialWindows(merged, s.PartialWindow(k, from, to, step))
			}
			folded := NewPartialWindow(from, to, step)
			s.FoldPartialWindow(keys, folded)
			if !reflect.DeepEqual(folded, merged) {
				t.Fatalf("store %d window %v: fold-in-place differs from the per-series merge:\n fold  %+v\n merge %+v", si, win, folded, merged)
			}
			var mergedAgg, foldedAgg PartialAgg
			for _, k := range keys {
				p, _ := s.PartialAggregate(k, from, to)
				mergedAgg.Merge(&p)
			}
			s.FoldPartial(keys, from, to, &foldedAgg)
			if !reflect.DeepEqual(foldedAgg, mergedAgg) {
				t.Fatalf("store %d range %v: FoldPartial differs from the per-series merge:\n fold  %+v\n merge %+v", si, win, foldedAgg, mergedAgg)
			}
		}
	}
}

func BenchmarkPartialMerge(b *testing.B) {
	s := New(Config{})
	k := pkey(1, 0)
	for i := int64(0); i < 1000; i++ {
		s.Append(k, 1_000_000_000+i*1_000_000, float64(i%977))
	}
	src, _ := s.PartialAggregate(k, 0, 1<<62)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dst PartialAgg
		dst.Merge(&src)
		if _, ok := dst.Finish(); !ok {
			b.Fatal("empty merge")
		}
	}
}
