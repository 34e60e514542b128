package tsdb

import (
	"math"
	"sync"
	"testing"
	"time"
)

// BenchmarkTSDBAppend is the steady-state ingest path: the series exists
// and the ring is warm, so each op is a lock + two array stores.
// scripts/verify.sh gates this at ≤1 alloc/op across the default,
// notelemetry, and notrace builds.
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
// hub's hook registered. scripts/verify.sh gates both at 0 allocs/op
// in every build mode.
func BenchmarkTSDBAppendRow(b *testing.B) {
	fields := []Field{FieldTxPackets, FieldTxBytes, FieldRxPackets, FieldRxBytes,
		FieldDropPackets, FieldDropBytes, FieldBufferBytes, FieldBufferPkts, FieldSojournMS}
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
// With the encoder's pooled scratch warm, a seal allocates the chunk
// and its exact-size bits only; scripts/verify.sh gates it at ≤ 2
// allocs/op.
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
		ck = enc.seal()
	}
	b.StopTimer()
	b.ReportMetric(float64(ck.sizeBytes())/float64(ck.count), "bytes/sample")
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
	ck := enc.seal()
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
