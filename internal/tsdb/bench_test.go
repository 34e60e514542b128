package tsdb

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// BenchmarkTSDBAppend is the steady-state ingest path: the series exists
// and the ring is warm, so each op is a lock + two array stores.
// scripts/verify.sh gates this at ≤1 alloc/op.
func BenchmarkTSDBAppend(b *testing.B) {
	s := New(Config{Capacity: 4096})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 3, Field: FieldCQI}
	s.Append(k, 0, 0) // create the series outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(k, int64(i), float64(i))
	}
}

// BenchmarkTSDBAppendHooked is BenchmarkTSDBAppend with an append hook
// registered that mirrors the obs stream hub's delta buffer: a mutex
// plus a fixed-capacity ring write. scripts/verify.sh gates this at
// ≤1 alloc/op — publishing live deltas must not cost the ingest path
// its allocation-free steady state.
func BenchmarkTSDBAppendHooked(b *testing.B) {
	s := New(Config{Capacity: 4096})
	type delta struct {
		k  SeriesKey
		ts int64
		v  float64
	}
	var (
		mu   sync.Mutex
		ring [1024]delta
		n    int
	)
	s.SetAppendHook(func(k SeriesKey, ts int64, v float64) {
		mu.Lock()
		ring[n&1023] = delta{k, ts, v}
		n++
		mu.Unlock()
	})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 3, Field: FieldCQI}
	s.Append(k, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(k, int64(i), float64(i))
	}
	b.StopTimer()
	if n != b.N+1 {
		b.Fatalf("hook saw %d appends, want %d", n, b.N+1)
	}
}

// BenchmarkTSDBAppendRow is the monitor's ingest unit: one nine-field
// RLC row per op into a warm series set, with and without the stream
// hub's hook registered, and (fleet) one row per op round-robin over
// 4096 UEs × the three monitoring functions with their MAC, RLC and PDCP
// field sets — 12 288 rows, 65 536 series, as in ingest_bulk — so the
// row probe misses the cache as it does at fleet scale.
// scripts/verify.sh gates all three at 0 allocs/op.
func BenchmarkTSDBAppendRow(b *testing.B) {
	fields := []Field{FieldTxPackets, FieldTxBytes, FieldRxPackets, FieldRxBytes,
		FieldDropPackets, FieldDropBytes, FieldBufferBytes, FieldBufferPkts, FieldSojournMS}
	b.Run("fleet", func(b *testing.B) {
		const ues = 4096
		fns := []struct {
			fn     uint16
			fields []Field
		}{
			{142, []Field{FieldCQI, FieldMCS, FieldRBsUsed, FieldTxBits, FieldThroughputBps}},
			{143, fields},
			{144, []Field{FieldTxPackets, FieldTxBytes}},
		}
		s := New(Config{Capacity: 16})
		vs := make([]float64, len(fields))
		for ue := 0; ue < ues; ue++ { // create the series outside the timed loop
			for _, f := range fns {
				s.AppendRow(SeriesKey{Agent: 1, Fn: f.fn, UE: uint16(ue)}, f.fields, 0, vs[:len(f.fields)])
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := &fns[i%len(fns)]
			vs[0] = float64(i)
			s.AppendRow(SeriesKey{Agent: 1, Fn: f.fn, UE: uint16(i / len(fns) % ues)}, f.fields, int64(i), vs[:len(f.fields)])
		}
	})
	for _, hooked := range []bool{false, true} {
		name := "hook=off"
		if hooked {
			name = "hook=on"
		}
		b.Run(name, func(b *testing.B) {
			s := New(Config{Capacity: 4096})
			var mu sync.Mutex
			var ring [1024]hookRec
			n := 0
			if hooked {
				s.SetAppendHook(func(k SeriesKey, ts int64, v float64) {
					mu.Lock()
					ring[n&1023] = hookRec{k, ts, v}
					n++
					mu.Unlock()
				})
			}
			k := SeriesKey{Agent: 1, Fn: 143, UE: 3}
			vs := make([]float64, len(fields))
			s.AppendRow(k, fields, 0, vs) // create the series outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs[0] = float64(i)
				s.AppendRow(k, fields, int64(i), vs)
			}
		})
	}
}

// BenchmarkTSDBAppendParallel measures contention across shards: each
// goroutine writes its own key set so lock striping can spread them.
func BenchmarkTSDBAppendParallel(b *testing.B) {
	s := New(Config{Capacity: 4096, Shards: 16})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldCQI}
		i := int64(0)
		for pb.Next() {
			i++
			k.UE = uint16(i % 64)
			s.Append(k, i, float64(i))
		}
	})
}

// BenchmarkTSDBAppendRaw archives a 512 B payload per op; the slot
// buffer comes from bufpool once and is reused thereafter.
func BenchmarkTSDBAppendRaw(b *testing.B) {
	s := New(Config{RawCapacity: 64})
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AppendRaw(1, 142, int64(i), payload)
	}
}

// BenchmarkTSDBLastK polls the newest 8 samples with a reused dst, the
// pattern control loops use.
func BenchmarkTSDBLastK(b *testing.B) {
	s := New(Config{Capacity: 4096})
	k := SeriesKey{Agent: 1, Fn: 143, UE: 1, Field: FieldSojournMS}
	for i := 0; i < 4096; i++ {
		s.Append(k, int64(i), float64(i))
	}
	dst := make([]Sample, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.LastK(k, 8, dst)
	}
}

// BenchmarkTSDBAggregate summarizes a full 1024-sample ring per op.
func BenchmarkTSDBAggregate(b *testing.B) {
	s := New(Config{Capacity: 1024})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldThroughputBps}
	for i := 0; i < 1024; i++ {
		s.Append(k, int64(i)*1e6, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Aggregate(k, 0, math.MaxInt64)
	}
}

// counterSeries fills ts/vs with a counter-like shape: a tx_bytes-style
// monotone series ticking every 1 ms and growing ~1500 B per report —
// the shape the ≤2 bytes/sample compression target is specified on.
func counterSeries(n int) (ts []int64, vs []float64) {
	ts = make([]int64, n)
	vs = make([]float64, n)
	t, v := int64(0), 0.0
	for i := 0; i < n; i++ {
		t += int64(time.Millisecond)
		v += 1500
		ts[i] = t
		vs[i] = v
	}
	return ts, vs
}

// BenchmarkTSDBCompressedAppend is the ingest path with Compress on:
// identical to BenchmarkTSDBAppend except every Capacity-th append
// seals the ring into a chunk, so the cost shown is the amortized
// append + seal. Allocations here are the amortized chunk allocations;
// the uncompressed fast path keeps its own ≤1 alloc/op gate.
func BenchmarkTSDBCompressedAppend(b *testing.B) {
	s := New(Config{Capacity: 4096, Compress: true, MaxChunks: 1 << 20})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 3, Field: FieldTxBytes}
	s.Append(k, 0, 0)
	ts, v := int64(0), 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts += int64(time.Millisecond)
		v += 1500
		s.Append(k, ts, v)
	}
	b.StopTimer()
	if st := s.Stats(); st.ChunkSamples > 0 {
		b.ReportMetric(st.BytesPerSample, "bytes/sample")
	}
}

// BenchmarkTSDBChunkSeal is the seal operation in isolation: one op
// compresses a full 4096-sample counter-like ring into a chunk. The
// bytes/sample metric is the headline compression ratio (16 bytes raw).
// With the encoder's pooled scratch warm, a seal onto a chain that
// still grows allocates the chunk and its bits only; scripts/verify.sh
// gates it at ≤ 2 allocs/op (BenchmarkTSDBSealRecycled is the full
// chain).
func BenchmarkTSDBChunkSeal(b *testing.B) {
	const n = 4096
	ts, vs := counterSeries(n)
	b.ReportAllocs()
	b.ResetTimer()
	var ck *chunk
	for i := 0; i < b.N; i++ {
		var enc chunkEncoder
		for j := 0; j < n; j++ {
			enc.add(ts[j], vs[j])
		}
		ck = enc.seal(nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(ck.sizeBytes())/float64(ck.count), "bytes/sample")
}

// wallClock yields the sample shape of ingest_bulk's series: wall-clock
// nanosecond timestamps 1 ms apart with ±0.5 ms of jitter, so nearly
// every delta-of-delta takes the 64-bit escape, and a counter growing by
// a varying step. A local xorshift keeps it deterministic.
type wallClock struct {
	x  uint64
	i  int64
	ts int64
	v  float64
}

func newWallClock() *wallClock { return &wallClock{x: 0x2545f4914f6cdd1d} }

func (w *wallClock) next() (int64, float64) {
	w.x ^= w.x << 13
	w.x ^= w.x >> 7
	w.x ^= w.x << 17
	w.i++
	w.ts = 1_700_000_000_000_000_000 + w.i*int64(time.Millisecond) + int64(w.x%1_000_000) - 500_000
	w.v += float64(1000 + w.x>>54)
	return w.ts, w.v
}

// BenchmarkTSDBChunkCodecWallClock seals and decodes one 4096-sample
// chunk of the wall-clock shape per op: the 64-bit escapes that
// dominate ingest_bulk's encode and fold.
func BenchmarkTSDBChunkCodecWallClock(b *testing.B) {
	const n = 4096
	ts, vs := make([]int64, n), make([]float64, n)
	w := newWallClock()
	for i := range ts {
		ts[i], vs[i] = w.next()
	}
	var ck *chunk
	b.Run("seal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var enc chunkEncoder
			for j := 0; j < n; j++ {
				enc.add(ts[j], vs[j])
			}
			ck = enc.seal(ck)
		}
		b.ReportMetric(float64(ck.sizeBytes())/float64(ck.count), "bytes/sample")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for it := ck.iter(); it.next(); {
			}
		}
	})
}

// BenchmarkTSDBSealRecycled is a compressed series at steady state: its
// chain is full and its tiers are at their caps, so every seal folds the
// oldest chunk into the tiers and is written into the chunk it retired.
// One op appends Capacity wall-clock samples: one seal, one fold.
// scripts/verify.sh gates it at 0 allocs/op.
func BenchmarkTSDBSealRecycled(b *testing.B) {
	const capacity = 256
	s := New(Config{Capacity: capacity, Compress: true, MaxChunks: 4, Tier1Cap: 8, Tier2Cap: 2})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 3, Field: FieldTxBytes}
	w := newWallClock()
	for i := 0; i < 200_000; i++ { // > 3 min: both tiers reach their caps
		ts, v := w.next()
		s.Append(k, ts, v)
	}
	if st := s.Stats(); st.Chunks != 4 || st.Tier1.Buckets != 8 || st.Tier2.Buckets != 2 {
		b.Fatalf("not at steady state: %+v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < capacity; j++ {
			ts, v := w.next()
			s.Append(k, ts, v)
		}
	}
}

// BenchmarkTSDBSeriesFootprint is the live heap a compressed series
// costs once its chain is full and it has folded two chunks into tier 1
// (one bucket at the bench caps, about two at the defaults), fed
// wall-clock samples: ingest_bulk's shape at its caps (Capacity 32,
// MaxChunks 4, Tier1Cap 64, Tier2Cap 16), the same at the default
// config, and a ring-mode series of Capacity 32 for comparison. It
// reports B/series (heap after a GC, divided by the series count).
func BenchmarkTSDBSeriesFootprint(b *testing.B) {
	for _, c := range []struct {
		name   string
		cfg    Config
		series int
	}{
		{"bench-caps", Config{Capacity: 32, Compress: true, MaxChunks: 4, Tier1Cap: 64, Tier2Cap: 16}, 4096},
		{"defaults", Config{Compress: true}, 64},
		{"ring", Config{Capacity: 32}, 4096},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.cfg.withDefaults()
			perSeries := cfg.Capacity * (cfg.MaxChunks + 3)
			var ms runtime.MemStats
			var perB float64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.HeapAlloc
				s := New(c.cfg)
				w := newWallClock()
				for j := 0; j < perSeries; j++ {
					ts, v := w.next()
					for ue := 0; ue < c.series; ue++ {
						s.Append(SeriesKey{Agent: 1, Fn: 142, UE: uint16(ue), Field: FieldTxBytes}, ts, v)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&ms)
				perB = float64(ms.HeapAlloc-before) / float64(c.series)
				runtime.KeepAlive(s)
			}
			b.ReportMetric(perB, "B/series")
		})
	}
}

// BenchmarkTSDBChunkDecode iterates one sealed 4096-sample chunk per op
// — the unit cost a query pays per chunk it cannot skip on the header.
func BenchmarkTSDBChunkDecode(b *testing.B) {
	const n = 4096
	ts, vs := counterSeries(n)
	var enc chunkEncoder
	for j := 0; j < n; j++ {
		enc.add(ts[j], vs[j])
	}
	ck := enc.seal(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := ck.iter()
		for it.next() {
		}
	}
}

// BenchmarkTSDBCompressedWindowQuery is BenchmarkTSDBWindowQuery over a
// compressed store: the same 10k samples and the same 10-bucket window,
// but most samples live in sealed chunks and are decoded chunk-at-a-time
// during the single query pass.
func BenchmarkTSDBCompressedWindowQuery(b *testing.B) {
	s := New(Config{Capacity: 1024, Compress: true, MaxChunks: 1 << 20})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldThroughputBps}
	for i := 0; i < 10000; i++ {
		s.Append(k, int64(i)*1e6, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Window(k, 0, 10000*1e6, 1e9)
	}
}

// BenchmarkTSDBSnapshot serializes a 16-series compressed store per op.
func BenchmarkTSDBSnapshot(b *testing.B) {
	s := New(Config{Capacity: 1024, Compress: true})
	ts, vs := counterSeries(8192)
	for ue := 0; ue < 16; ue++ {
		k := SeriesKey{Agent: 1, Fn: 142, UE: uint16(ue), Field: FieldTxBytes}
		for i := range ts {
			s.Append(k, ts[i], vs[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.WriteSnapshot(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkTSDBWindowQuery runs the 10-bucket windowed aggregate the
// /tsdb/query endpoint serves, over a 10k-sample series.
func BenchmarkTSDBWindowQuery(b *testing.B) {
	s := New(Config{Capacity: 16384})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldThroughputBps}
	for i := 0; i < 10000; i++ {
		s.Append(k, int64(i)*1e6, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Window(k, 0, 10000*1e6, 1e9)
	}
}
