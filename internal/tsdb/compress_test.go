package tsdb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestCompressedQueryEquivalence is the semantic guarantee of the
// compressed mode: as long as no data has left the raw domain (nothing
// folded into tiers), every query — LastK, Range, Aggregate, Window —
// returns results identical to an uncompressed store fed the same
// samples. The compressed store uses a small write head so most of the
// data lives in sealed chunks.
func TestCompressedQueryEquivalence(t *testing.T) {
	const n = 10000
	raw := New(Config{Capacity: 16384})
	comp := New(Config{Capacity: 512, Compress: true, MaxChunks: 1 << 20})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldThroughputBps}
	rng := rand.New(rand.NewSource(7))
	v := 100.0
	for i := 0; i < n; i++ {
		v += rng.NormFloat64() * 5
		raw.Append(k, int64(i)*1e6, v)
		comp.Append(k, int64(i)*1e6, v)
	}

	wantW := raw.Window(k, 0, n*1e6, 1e9)
	gotW := comp.Window(k, 0, n*1e6, 1e9)
	if !reflect.DeepEqual(wantW, gotW) {
		t.Fatalf("Window diverges:\nraw:  %+v\ncomp: %+v", wantW[:2], gotW[:2])
	}

	wantA, ok1 := raw.Aggregate(k, 0, math.MaxInt64)
	gotA, ok2 := comp.Aggregate(k, 0, math.MaxInt64)
	if !ok1 || !ok2 || wantA != gotA {
		t.Fatalf("Aggregate diverges:\nraw:  %+v\ncomp: %+v", wantA, gotA)
	}

	// Range restricted to a span that crosses several chunk boundaries.
	wantR := raw.Range(k, 2500*1e6, 7500*1e6, nil)
	gotR := comp.Range(k, 2500*1e6, 7500*1e6, nil)
	if !reflect.DeepEqual(wantR, gotR) {
		t.Fatalf("Range diverges: %d vs %d samples", len(wantR), len(gotR))
	}

	// LastK within the write head, and LastK deep enough to need chunk
	// decompression (2000 > the 512-sample head).
	for _, count := range []int{8, 512, 2000, n + 50} {
		wantL := raw.LastK(k, count, nil)
		gotL := comp.LastK(k, count, nil)
		if !reflect.DeepEqual(wantL, gotL) {
			t.Fatalf("LastK(%d) diverges: %d vs %d samples", count, len(wantL), len(gotL))
		}
	}
}

// TestChunkRetentionFoldsToTiers checks the retention ladder: when the
// chunk chain exceeds MaxChunks the oldest chunk folds into the 1 s
// tier instead of being deleted, so a whole-range aggregate still
// accounts for every appended sample.
func TestChunkRetentionFoldsToTiers(t *testing.T) {
	const n = 10000
	s := New(Config{Capacity: 64, Compress: true, MaxChunks: 2})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldTxBytes}
	for i := 0; i < n; i++ {
		s.Append(k, int64(i)*int64(time.Millisecond), 1.0)
	}
	st := s.Stats()
	if st.Chunks > 2 {
		t.Fatalf("chunk chain %d exceeds MaxChunks 2", st.Chunks)
	}
	if st.Tier1.Buckets == 0 {
		t.Fatal("nothing folded into tier 1")
	}
	agg, ok := s.Aggregate(k, 0, math.MaxInt64)
	if !ok {
		t.Fatal("no aggregate")
	}
	// Every sample is retained somewhere: head + chunks + tier buckets.
	if agg.Count != n {
		t.Fatalf("aggregate count %d, want %d (samples lost in retention)", agg.Count, n)
	}
	if agg.Min != 1 || agg.Max != 1 || agg.Mean != 1 {
		t.Fatalf("constant series aggregate: %+v", agg)
	}
}

// TestTierStorageGrowsWithBuckets: at the default caps (Tier1Cap 4096)
// a compressed series that has folded 10 s of 1 ms samples holds tier-1
// storage for at most 16 buckets and none for tier 2, and a ring-mode
// series fed the same samples holds no tier storage and stays at the
// 128 B a series took when every series carried two tier pointers.
func TestTierStorageGrowsWithBuckets(t *testing.T) {
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldTxBytes}
	comp, ring := New(Config{Compress: true}), New(Config{})
	var ts int64
	for comp.Stats().Tier1.Samples < 10_000 {
		for i := 0; i < 1024; i++ {
			comp.Append(k, ts, float64(ts))
			ring.Append(k, ts, float64(ts))
			ts += int64(time.Millisecond)
		}
	}
	st := comp.Stats()
	if st.Tier1.Buckets < 10 || st.Tier1.Capacity > 16 || st.Tier2.Capacity != 0 {
		t.Fatalf("after %d folded samples: tier 1 holds %d buckets in storage for %d (want ≤ 16), tier 2 storage %d (want 0)",
			st.Tier1.Samples, st.Tier1.Buckets, st.Tier1.Capacity, st.Tier2.Capacity)
	}
	if st := ring.Stats(); st.Tier1 != (TierStats{}) || st.Tier2 != (TierStats{}) || ring.lookup(k).tiers != nil {
		t.Fatalf("ring-mode series holds tier storage: %+v %+v", st.Tier1, st.Tier2)
	}
	if size := unsafe.Sizeof(series{}); size != 128 {
		t.Fatalf("a series is %d bytes; it is kept at 128, two whole cache lines", size)
	}
}

// TestAgeRetentionCompressSealsAndFolds checks MaxAge semantics under
// compression: aging data is sealed out of the write head and folded
// into tiers rather than deleted (the uncompressed mode deletes), so
// history shrinks in resolution, not in coverage.
func TestAgeRetentionCompressSealsAndFolds(t *testing.T) {
	const n = 5000
	s := New(Config{Capacity: 1024, Compress: true, MaxAge: time.Second})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldTxBytes}
	for i := 0; i < n; i++ {
		s.Append(k, int64(i)*int64(time.Millisecond), float64(i))
	}
	agg, ok := s.Aggregate(k, 0, math.MaxInt64)
	if !ok || agg.Count != n {
		t.Fatalf("aggregate count %d, want %d", agg.Count, n)
	}
	// The raw domain (Range) is bounded by MaxAge + head slack, far less
	// than the full history; the rest is tier summaries.
	rawSamples := s.Range(k, 0, math.MaxInt64, nil)
	if len(rawSamples) == n {
		t.Fatal("age retention kept everything raw")
	}
	if len(rawSamples) == 0 {
		t.Fatal("age retention deleted the raw window")
	}
	info := s.List(-1, 0)
	if len(info) != 1 || info[0].TierSamples == 0 {
		t.Fatalf("expected tier occupancy, got %+v", info)
	}
}

// TestTierBucketFolding exercises the tier ladder directly: same-bucket
// merging, ring growth, eviction into tier 2, and the final drop.
func TestTierBucketFolding(t *testing.T) {
	l := newLadder(2, 2)
	t1, t2 := &l.t1, &l.t2
	// Two samples in the same 1 s bucket merge into a one-bucket ring.
	l.foldSample(100e6, 5)
	l.foldSample(900e6, 7)
	if b := t1.at(0); t1.n != 1 || len(t1.b) != 1 || b.count != 2 || b.min != 5 || b.max != 7 || b.sum != 12 {
		t.Fatalf("same-bucket merge: n=%d cap=%d bucket=%+v", t1.n, len(t1.b), *b)
	}
	// A second bucket grows the ring to its cap; a third evicts the
	// oldest into t2.
	l.foldSample(1_100e6, 1)
	if t1.n != 2 || len(t1.b) != 2 || len(t2.b) != 0 {
		t.Fatalf("t1 n=%d cap=%d, t2 cap=%d; want 2, 2, 0", t1.n, len(t1.b), len(t2.b))
	}
	l.foldSample(2_100e6, 9)
	if t1.n != 2 || len(t1.b) != 2 {
		t.Fatalf("t1 occupancy %d cap %d, want 2 and 2", t1.n, len(t1.b))
	}
	if b := t2.at(0); t2.n != 1 || b.count != 2 || b.sum != 12 {
		t.Fatalf("evicted bucket not in t2: n=%d", t2.n)
	}
	if got := t1.samples() + t2.samples(); got != 4 {
		t.Fatalf("sample conservation: %d, want 4", got)
	}
	// t2 wraps at its cap and drops its oldest bucket.
	for i := int64(1); i <= 4; i++ {
		l.foldSample(i*tier2Width+3e9, 1)
	}
	if t2.n != 2 || len(t2.b) != 2 || t2.at(0).start != tier2Width || t2.at(1).start != 2*tier2Width {
		t.Fatalf("t2 after wrap: n=%d cap=%d oldest=%d", t2.n, len(t2.b), t2.at(0).start)
	}
	// Bucket-start alignment at negative timestamps floors toward -inf.
	if got := t1.bucketStart(-1); got != -tier1Width {
		t.Fatalf("bucketStart(-1) = %d, want %d", got, -tier1Width)
	}
	if got := t1.bucketStart(-tier1Width); got != -tier1Width {
		t.Fatalf("bucketStart(-width) = %d, want %d", got, -tier1Width)
	}
}

// TestCompressedSeriesInfo checks the List metadata over a compressed
// series: Count spans head+chunks, OldestTS reaches back into the
// oldest chunk, and the chunk/tier occupancy fields are populated.
func TestCompressedSeriesInfo(t *testing.T) {
	s := New(Config{Capacity: 128, Compress: true, MaxChunks: 4})
	k := SeriesKey{Agent: 9, Fn: 143, UE: 2, Field: FieldRxBytes}
	const n = 1000
	for i := 0; i < n; i++ {
		s.Append(k, int64(i)*1e6, float64(i))
	}
	infos := s.List(9, 143)
	if len(infos) != 1 {
		t.Fatalf("%d series listed", len(infos))
	}
	info := infos[0]
	if info.Chunks == 0 {
		t.Fatal("no chunks reported")
	}
	if info.NewestTS != (n-1)*1e6 {
		t.Fatalf("NewestTS = %d", info.NewestTS)
	}
	if info.OldestTS >= info.NewestTS {
		t.Fatalf("OldestTS = %d not older than newest", info.OldestTS)
	}
	// 1000 samples, head 128, MaxChunks 4: some folded to tiers; the
	// retained raw count is head + chunk samples.
	if info.Count <= 128 {
		t.Fatalf("Count = %d, want > head capacity", info.Count)
	}
}
