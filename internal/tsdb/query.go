package tsdb

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"flexric/internal/metrics"
)

// Agg summarizes the samples of one series over a time range: the
// windowed-aggregate unit control loops consume instead of single
// latest reports.
//
// Over compressed series a range may be served partly or wholly from
// downsampling tiers (count/min/max/sum buckets). Count, Min, Max and
// Mean merge exactly across raw and tier data. RatePerS and the
// percentiles need raw samples: with none in range, RatePerS is 0 and
// the percentiles degrade to the documented approximation (P50 = Mean,
// P95 = P99 = Max). See docs/TSDB.md.
type Agg struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// RatePerS is the counter-style rate: (last - first) value delta
	// per second of series time. Meaningful for monotonic fields
	// (tx_bytes, tx_packets); for gauges use Mean.
	RatePerS float64 `json:"rate_per_s"`
	P50      float64 `json:"p50"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
	FirstTS  int64   `json:"first_ts"`
	LastTS   int64   `json:"last_ts"`
}

// Bucket is one window of a windowed aggregate query.
type Bucket struct {
	FromTS int64 `json:"from_ts"`
	ToTS   int64 `json:"to_ts"`
	Agg    Agg   `json:"agg"`
}

// SeriesInfo describes one live series for enumeration. Count is the
// raw retained sample count (write head + sealed chunks); Chunks and
// TierSamples report the compressed-side occupancy (both zero on
// uncompressed stores).
type SeriesInfo struct {
	Key         SeriesKey `json:"key"`
	Field       string    `json:"field"`
	Count       int       `json:"count"`
	Chunks      int       `json:"chunks,omitempty"`
	TierSamples int       `json:"tier_samples,omitempty"`
	OldestTS    int64     `json:"oldest_ts"`
	NewestTS    int64     `json:"newest_ts"`
}

// ParseMS parses a positive millisecond count — the window_ms and
// step_ms parameters of the query APIs — and returns it in nanoseconds.
// ok is false for anything else, including a count whose nanoseconds
// would not fit in an int64.
func ParseMS(s string) (ns int64, ok bool) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64/int64(time.Millisecond) {
		return 0, false
	}
	return n * int64(time.Millisecond), true
}

// lookup returns the series for k, or nil.
func (s *Store) lookup(k SeriesKey) *series {
	sh := s.shardFor(k)
	sh.mu.RLock()
	se := sh.series[k]
	sh.mu.RUnlock()
	return se
}

// aggState accumulates one Agg from raw samples and tier buckets,
// visited oldest-first. It reproduces the pre-compression aggregation
// exactly when fed only samples (the golden windowed-aggregate test
// pins this), and merges tier summaries losslessly for
// count/min/max/mean.
type aggState struct {
	agg  Agg
	vals []float64 // raw sample values, for the percentile sort
	// First/last raw sample, in visit order, for the counter rate.
	rawN                  int
	firstRawTS, lastRawTS int64
	firstV, lastV         float64
}

func (a *aggState) addSample(ts int64, v float64) {
	if a.agg.Count == 0 {
		a.agg.Min, a.agg.Max = v, v
		a.agg.FirstTS = ts
	} else {
		if v < a.agg.Min {
			a.agg.Min = v
		}
		if v > a.agg.Max {
			a.agg.Max = v
		}
	}
	a.agg.LastTS = ts
	a.agg.Mean += v // sum until finish
	a.agg.Count++
	a.vals = append(a.vals, v)
	if a.rawN == 0 {
		a.firstRawTS, a.firstV = ts, v
	}
	a.lastRawTS, a.lastV = ts, v
	a.rawN++
}

func (a *aggState) addBucket(start int64, count uint32, min, max, sum float64) {
	if count == 0 {
		return
	}
	if a.agg.Count == 0 {
		a.agg.Min, a.agg.Max = min, max
		a.agg.FirstTS = start
	} else {
		if min < a.agg.Min {
			a.agg.Min = min
		}
		if max > a.agg.Max {
			a.agg.Max = max
		}
	}
	a.agg.LastTS = start
	a.agg.Mean += sum
	a.agg.Count += int(count)
}

func (a *aggState) finish() (Agg, bool) {
	if a.agg.Count == 0 {
		return Agg{}, false
	}
	a.agg.Mean /= float64(a.agg.Count)
	if a.rawN > 0 {
		if dt := a.lastRawTS - a.firstRawTS; dt > 0 {
			a.agg.RatePerS = (a.lastV - a.firstV) / (float64(dt) / 1e9)
		}
		sort.Float64s(a.vals)
		a.agg.P50 = metrics.PercentileFloats(a.vals, 50)
		a.agg.P95 = metrics.PercentileFloats(a.vals, 95)
		a.agg.P99 = metrics.PercentileFloats(a.vals, 99)
	} else {
		// Tier-only range: order statistics are not recoverable from
		// count/min/max/sum summaries. Documented approximation.
		a.agg.P50 = a.agg.Mean
		a.agg.P95 = a.agg.Max
		a.agg.P99 = a.agg.Max
	}
	return a.agg, true
}

// visitLocked walks the series' retained data in time order — tier-2
// buckets, tier-1 buckets, sealed chunks (chunk-at-a-time: blocks
// entirely outside [from, to] are skipped on their headers without
// decompression), then the write head — restricted to [from, to]
// inclusive. Tier summaries go to bucket (nil skips tiers), raw
// samples to sample. A write head known to be in timestamp order is
// binary-searched for from and left at the first sample past to, so a
// short window over a long ring costs the samples in it; an unordered
// head is scanned end to end. Caller holds se.mu.
func (se *series) visitLocked(from, to int64, bucket func(start int64, count uint32, min, max, sum float64), sample func(ts int64, v float64)) {
	if bucket != nil {
		if se.t2 != nil {
			se.t2.visit(from, to, bucket)
		}
		if se.t1 != nil {
			se.t1.visit(from, to, bucket)
		}
	}
	for _, ck := range se.chunks {
		if ck.lastTS < from || ck.firstTS > to {
			continue
		}
		it := ck.iter()
		for it.next() {
			if it.ts < from || it.ts > to {
				continue
			}
			sample(it.ts, it.v)
		}
	}
	c := len(se.ts)
	if se.unordered {
		for i := 0; i < se.n; i++ {
			j := (se.head + i) % c
			if se.ts[j] < from || se.ts[j] > to {
				continue
			}
			sample(se.ts[j], se.vs[j])
		}
		return
	}
	i := sort.Search(se.n, func(i int) bool { return se.ts[(se.head+i)%c] >= from })
	for ; i < se.n; i++ {
		j := (se.head + i) % c
		if se.ts[j] > to {
			break
		}
		sample(se.ts[j], se.vs[j])
	}
}

// LastK appends the newest k samples of the series (oldest first) to
// dst and returns it. A nil dst allocates; callers polling repeatedly
// reuse their slice to stay allocation-free. On compressed series a k
// larger than the write head decompresses the newest chunks to serve
// the tail; tiers never contribute (they hold summaries, not samples).
func (s *Store) LastK(k SeriesKey, count int, dst []Sample) []Sample {
	defer observeQuery(time.Now())
	se := s.lookup(k)
	if se == nil || count <= 0 {
		return dst[:0]
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	dst = dst[:0]
	need := count - se.n
	if need > 0 && len(se.chunks) > 0 {
		// Walk the chain backwards to find the oldest chunk we need,
		// then decompress forward, skipping the surplus prefix.
		total := 0
		first := len(se.chunks)
		for first > 0 && total < need {
			first--
			total += se.chunks[first].count
		}
		skip := total - need
		if skip < 0 {
			skip = 0
		}
		for _, ck := range se.chunks[first:] {
			it := ck.iter()
			for it.next() {
				if skip > 0 {
					skip--
					continue
				}
				dst = append(dst, Sample{TS: it.ts, V: it.v})
			}
		}
	}
	if count > se.n {
		count = se.n
	}
	c := len(se.ts)
	for i := se.n - count; i < se.n; i++ {
		j := (se.head + i) % c
		dst = append(dst, Sample{TS: se.ts[j], V: se.vs[j]})
	}
	return dst
}

// Range appends the raw samples with from ≤ TS ≤ to (oldest first) to
// dst and returns it. Samples already folded into tiers are summaries,
// not samples, and are not returned — use Aggregate or Window to read
// that far back.
func (s *Store) Range(k SeriesKey, from, to int64, dst []Sample) []Sample {
	defer observeQuery(time.Now())
	dst = dst[:0]
	se := s.lookup(k)
	if se == nil {
		return dst
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	se.visitLocked(from, to, nil, func(ts int64, v float64) {
		dst = append(dst, Sample{TS: ts, V: v})
	})
	return dst
}

// Aggregate computes the windowed aggregate of one series over
// [from, to], merging tier summaries, decompressed chunks, and the
// write head. ok is false when nothing falls in the range.
func (s *Store) Aggregate(k SeriesKey, from, to int64) (Agg, bool) {
	defer observeQuery(time.Now())
	se := s.lookup(k)
	if se == nil {
		return Agg{}, false
	}
	var st aggState
	se.mu.Lock()
	se.visitLocked(from, to, st.addBucket, st.addSample)
	se.mu.Unlock()
	return st.finish()
}

// Window slices [from, to) into fixed step-width buckets and aggregates
// each; buckets with no samples are returned with a zero Agg so the
// series of buckets is continuous. step must be positive; the number of
// buckets is capped at 4096 to bound response sizes.
//
// The implementation is a single pass over the retained data — each
// sample (or tier bucket) is dispatched to its window as it is visited
// — rather than one scan per window, so cost is O(samples + windows),
// not O(samples × windows).
func (s *Store) Window(k SeriesKey, from, to, step int64) []Bucket {
	defer observeQuery(time.Now())
	nb, to := windowBuckets(from, to, step)
	if nb == 0 {
		return nil
	}
	states := make([]aggState, nb)
	if se := s.lookup(k); se != nil {
		se.mu.Lock()
		se.visitLocked(from, to-1, func(start int64, count uint32, min, max, sum float64) {
			states[bucketOf(start, from, step)].addBucket(start, count, min, max, sum)
		}, func(ts int64, v float64) {
			states[bucketOf(ts, from, step)].addSample(ts, v)
		})
		se.mu.Unlock()
	}
	out := make([]Bucket, nb)
	for b := int64(0); b < nb; b++ {
		lo, hi := bucketBounds(from, to, step, b)
		out[b] = Bucket{FromTS: lo, ToTS: hi}
		if agg, ok := states[b].finish(); ok {
			out[b].Agg = agg
		}
	}
	return out
}

// walk calls fn for every live series whose key match accepts, each
// shard under its read lock. fn must not take a shard lock.
func (s *Store) walk(match func(SeriesKey) bool, fn func(SeriesKey, *series)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, se := range sh.series {
			if match(k) {
				fn(k, se)
			}
		}
		sh.mu.RUnlock()
	}
}

// compareKeys orders keys by agent, function, UE, then field.
func compareKeys(a, b SeriesKey) int {
	return cmp.Or(cmp.Compare(a.Agent, b.Agent), cmp.Compare(a.Fn, b.Fn),
		cmp.Compare(a.UE, b.UE), cmp.Compare(a.Field, b.Field))
}

// Keys returns the keys of the live series match accepts, sorted by
// agent, function, UE and field — the selection a multi-series query
// folds, in an order that keeps its float sums reproducible. It reads
// keys only: no series lock is taken.
func (s *Store) Keys(match func(SeriesKey) bool) []SeriesKey {
	var keys []SeriesKey
	s.walk(match, func(k SeriesKey, _ *series) { keys = append(keys, k) })
	slices.SortFunc(keys, compareKeys)
	return keys
}

// List enumerates live series, optionally filtered: agent < 0 matches
// all agents, fn == 0 all functions. The result is sorted by key for
// stable output.
func (s *Store) List(agent int64, fn uint16) []SeriesInfo {
	defer observeQuery(time.Now())
	var out []SeriesInfo
	s.walk(func(k SeriesKey) bool {
		return (agent < 0 || k.Agent == uint32(agent)) && (fn == 0 || k.Fn == fn)
	}, func(k SeriesKey, se *series) {
		se.mu.Lock()
		info := SeriesInfo{
			Key:    k,
			Field:  k.Field.String(),
			Count:  se.n + se.chunkSamples(),
			Chunks: len(se.chunks),
		}
		if se.t1 != nil {
			info.TierSamples = se.t1.samples() + se.t2.samples()
		}
		switch {
		case len(se.chunks) > 0:
			info.OldestTS = se.chunks[0].firstTS
		case se.n > 0:
			info.OldestTS = se.ts[se.head]
		}
		if se.n > 0 {
			info.NewestTS = se.ts[(se.head+se.n-1)%len(se.ts)]
		} else if nc := len(se.chunks); nc > 0 {
			info.NewestTS = se.chunks[nc-1].lastTS
		}
		se.mu.Unlock()
		out = append(out, info)
	})
	slices.SortFunc(out, func(a, b SeriesInfo) int { return compareKeys(a.Key, b.Key) })
	return out
}
