package tsdb

import (
	"errors"
	"fmt"
	"math"
	"time"

	"flexric/internal/encoding/walk"
)

// PartialAgg is the mergeable form of Agg: the commutative summary one
// shard computes locally so a federation root can combine per-shard
// results into a fleet-wide aggregate without shipping raw samples.
// Count/Min/Max/Sum (and hence Mean) merge exactly. Percentiles merge
// through a log-scale value histogram (DDSketch-style): each raw sample
// lands in bucket floor(log_gamma |v|), split by sign, with zeros (and
// NaN) counted apart; the union of shard histograms yields fleet
// percentiles accurate to one bucket (a relative-error bound of about
// (gamma-1)/2 ≈ 4%). Tier summaries carry no histogram, so a range
// served only from downsampling tiers degrades percentiles exactly like
// Agg does (P50 = Mean, P95 = P99 = Max).
//
// Folding samples one by one and merging partials give the same result:
// the first and last timestamps are the earliest and latest seen, and
// of raw samples sharing the earliest (latest) timestamp the one folded
// first wins. A handler can therefore fold every series of a query
// into one partial instead of merging one partial per series.
//
// A PartialAgg travels inside a PartialLeg: as JSON in the
// /tsdb/partial body, and as the PER form of its field walk in the
// federation's query-leg answer (docs/FEDERATION.md). The counters are
// int64 so that the walk moves them in place.
type PartialAgg struct {
	Count   int64   `json:"count"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Sum     float64 `json:"sum"`
	FirstTS int64   `json:"first_ts"`
	LastTS  int64   `json:"last_ts"`

	// Raw-sample bookkeeping for the counter rate: earliest and latest
	// raw sample across every merged input.
	RawN       int64   `json:"raw_n"`
	RawFirstTS int64   `json:"raw_first_ts"`
	RawLastTS  int64   `json:"raw_last_ts"`
	FirstV     float64 `json:"first_v"`
	LastV      float64 `json:"last_v"`

	// Log-scale value histogram over raw samples: Pos counts v > 0 by
	// histIdx(v), Neg counts v < 0 by histIdx(-v), Zeros the rest.
	Zeros int64 `json:"zeros,omitempty"`
	Pos   Hist  `json:"pos,omitzero"`
	Neg   Hist  `json:"neg,omitzero"`
}

// walk is the partial's field walk (package walk). It takes slots 0–15,
// so a bucket or a leg that walks it inline adds its own fields from
// slot 16 and stays one flat table.
func (p *PartialAgg) walk(f walk.Fields) {
	f.I64(0, &p.Count)
	f.F64(1, &p.Min)
	f.F64(2, &p.Max)
	f.F64(3, &p.Sum)
	f.I64(4, &p.FirstTS)
	f.I64(5, &p.LastTS)
	f.I64(6, &p.RawN)
	f.I64(7, &p.RawFirstTS)
	f.I64(8, &p.RawLastTS)
	f.F64(9, &p.FirstV)
	f.F64(10, &p.LastV)
	f.I64(11, &p.Zeros)
	p.Pos.walk(f, 12)
	p.Neg.walk(f, 14)
}

// Hist is a dense run of log-scale bucket counts: N[i] samples fell in
// bucket Lo+i. A run covers only the buckets between the lowest and the
// highest one observed, so a window of similar values costs a few
// dozen ints however many samples it holds.
type Hist struct {
	Lo int64   `json:"lo"`
	N  []int64 `json:"n"`
}

// walk is the run's field walk: Lo in slot, the counts in slot+1.
func (h *Hist) walk(f walk.Fields, slot int) {
	f.I64(slot, &h.Lo)
	walk.ListOf(f, slot+1, &h.N, walkCount)
}

func walkCount(n *int64, f walk.Fields) { f.I64(0, n) }

// IsZero reports an empty run; the JSON encoder omits it.
func (h Hist) IsZero() bool { return len(h.N) == 0 }

// histHeadroom is the capacity a run starts with: the buckets of CQI
// 1–15 (0–35) fit in it, so a run folded from such values is allocated
// once instead of regrowing as the extremes arrive. A run that outgrows
// it moves to at least histWide buckets, eight decades of values.
const (
	histHeadroom = 64
	histWide     = 256
)

// cover extends the run to include bucket indices lo..hi.
func (h *Hist) cover(lo, hi int64) {
	if len(h.N) == 0 {
		n := int(hi - lo + 1)
		h.Lo, h.N = lo, make([]int64, n, max(n, histHeadroom))
		return
	}
	top := h.Lo + int64(len(h.N)) - 1
	if lo >= h.Lo && hi <= top {
		return
	}
	lo, hi = min(lo, h.Lo), max(hi, top)
	n, d, old := int(hi-lo+1), int(h.Lo-lo), len(h.N)
	if n > cap(h.N) {
		grown := make([]int64, n, max(n, 2*cap(h.N), histWide))
		copy(grown[d:], h.N)
		h.N = grown
	} else {
		h.N = h.N[:n]
		copy(h.N[d:], h.N[:old])
		clear(h.N[:d])
		clear(h.N[d+old:])
	}
	h.Lo = lo
}

func (h *Hist) add(idx int64) {
	if idx < h.Lo || idx >= h.Lo+int64(len(h.N)) {
		h.cover(idx, idx)
	}
	h.N[idx-h.Lo]++
}

func (h *Hist) merge(src *Hist) {
	if len(src.N) == 0 {
		return
	}
	h.cover(src.Lo, src.Lo+int64(len(src.N))-1)
	dst := h.N[src.Lo-h.Lo:]
	for i, n := range src.N {
		dst[i] += n
	}
}

// total sums the run's counts after checking that it lies inside the
// finite bucket range, that no count is negative and that the counts
// add up to at most limit.
func (h *Hist) total(limit int64) (int64, error) {
	if len(h.N) == 0 {
		return 0, nil
	}
	if lo, hi := int64(histMinIdx), int64(histMaxIdx); h.Lo < lo || h.Lo > hi || int64(len(h.N)) > hi-h.Lo+1 {
		return 0, fmt.Errorf("%w: histogram run [%d, +%d) outside [%d, %d]", ErrBadPartial, h.Lo, len(h.N), histMinIdx, histMaxIdx)
	}
	var sum int64
	for _, n := range h.N {
		if n < 0 || n > limit-sum {
			return 0, fmt.Errorf("%w: histogram counts", ErrBadPartial)
		}
		sum += n
	}
	return sum, nil
}

// PartialBucket is one window of a federated windowed query.
type PartialBucket struct {
	FromTS int64      `json:"from_ts"`
	ToTS   int64      `json:"to_ts"`
	Agg    PartialAgg `json:"agg"`
}

func (b *PartialBucket) walk(f walk.Fields) {
	f.I64(16, &b.FromTS)
	f.I64(17, &b.ToTS)
	b.Agg.walk(f)
}

// HistGamma is the histogram's bucket growth factor. 1.08 keeps the
// merged-percentile relative error near 4% while a full CQI-to-bytes
// value range (1e0..1e9) still fits in ~270 buckets. Exported so
// consumers comparing percentiles across merges can express tolerances
// in buckets.
const HistGamma = 1.08

const histGamma = HistGamma

var logHistGamma = math.Log(histGamma)

// The finite bucket range. Subnormal magnitudes all share the bottom
// bucket (math.Log is not accurate on them on every platform, and the
// range must be the same everywhere because the root validates shard
// answers against it); +Inf is clamped to the top bucket, whose
// representative is +Inf (see histRep).
const smallestNormal = 0x1p-1022

var (
	histMinIdx = histLogIdx(smallestNormal)
	histMaxIdx = histLogIdx(math.MaxFloat64)
)

func histLogIdx(abs float64) int {
	return int(math.Floor(math.Log(abs) / logHistGamma))
}

// histIdx maps |v| (> 0, possibly +Inf) to its bucket index in
// [histMinIdx, histMaxIdx].
func histIdx(abs float64) int {
	switch {
	case abs < smallestNormal:
		return histMinIdx
	case abs > math.MaxFloat64:
		return histMaxIdx
	}
	return min(max(histLogIdx(abs), histMinIdx), histMaxIdx)
}

// histRep returns the representative value of bucket idx: the midpoint
// of [gamma^idx, gamma^(idx+1)). The top bucket, which also holds +Inf,
// is represented by +Inf so that the caller's clamp to [Min, Max]
// answers with the largest sample it holds — explicitly, because
// whether math.Exp overflows there differs by platform.
func histRep(idx int) float64 {
	if idx >= histMaxIdx {
		return math.Inf(1)
	}
	lo := math.Exp(float64(idx) * logHistGamma)
	return lo * (1 + histGamma) / 2
}

// ErrBadPartial reports a partial (typically decoded from a peer) that
// no store could have produced.
var ErrBadPartial = errors.New("tsdb: bad partial")

// observe folds one raw sample into the partial.
func (p *PartialAgg) observe(ts int64, v float64) {
	if p.Count == 0 {
		p.Min, p.Max = v, v
		p.FirstTS, p.LastTS = ts, ts
	} else {
		if v < p.Min {
			p.Min = v
		}
		if v > p.Max {
			p.Max = v
		}
		if ts < p.FirstTS {
			p.FirstTS = ts
		}
		if ts > p.LastTS {
			p.LastTS = ts
		}
	}
	p.Sum += v
	p.Count++
	if p.RawN == 0 || ts < p.RawFirstTS {
		p.RawFirstTS, p.FirstV = ts, v
	}
	if p.RawN == 0 || ts > p.RawLastTS {
		p.RawLastTS, p.LastV = ts, v
	}
	p.RawN++
	switch {
	case v > 0:
		p.Pos.add(int64(histIdx(v)))
	case v < 0:
		p.Neg.add(int64(histIdx(-v)))
	default:
		p.Zeros++
	}
}

// observeBucket folds one downsampling-tier summary into the partial.
// Tier data carries no per-sample values, so the histogram is untouched
// and percentiles degrade (see type doc).
func (p *PartialAgg) observeBucket(start int64, count uint32, min, max, sum float64) {
	if count == 0 {
		return
	}
	if p.Count == 0 {
		p.Min, p.Max = min, max
		p.FirstTS, p.LastTS = start, start
	} else {
		if min < p.Min {
			p.Min = min
		}
		if max > p.Max {
			p.Max = max
		}
		if start < p.FirstTS {
			p.FirstTS = start
		}
		if start > p.LastTS {
			p.LastTS = start
		}
	}
	p.Sum += sum
	p.Count += int64(count)
}

// Merge folds src into p. Merging is commutative and associative up to
// float summation order and to which of two raw samples with the same
// timestamp supplies FirstV/LastV; the federated golden test pins exact
// count/min/max/mean equality on integer-valued streams.
func (p *PartialAgg) Merge(src *PartialAgg) {
	if src.Count == 0 {
		return
	}
	if p.Count == 0 {
		p.Min, p.Max = src.Min, src.Max
		p.FirstTS, p.LastTS = src.FirstTS, src.LastTS
	} else {
		if src.Min < p.Min {
			p.Min = src.Min
		}
		if src.Max > p.Max {
			p.Max = src.Max
		}
		if src.FirstTS < p.FirstTS {
			p.FirstTS = src.FirstTS
		}
		if src.LastTS > p.LastTS {
			p.LastTS = src.LastTS
		}
	}
	p.Sum += src.Sum
	p.Count += src.Count
	if src.RawN > 0 {
		if p.RawN == 0 || src.RawFirstTS < p.RawFirstTS {
			p.RawFirstTS, p.FirstV = src.RawFirstTS, src.FirstV
		}
		if p.RawN == 0 || src.RawLastTS > p.RawLastTS {
			p.RawLastTS, p.LastV = src.RawLastTS, src.LastV
		}
		p.RawN += src.RawN
	}
	p.Zeros += src.Zeros
	p.Pos.merge(&src.Pos)
	p.Neg.merge(&src.Neg)
}

// Validate checks a partial decoded from an untrusted peer before it is
// merged: no negative count, histogram runs inside the finite bucket
// range, and histogram plus zero counts adding up to RawN ≤ Count. A
// valid partial merges into any other without growing a run past the
// finite range.
func (p *PartialAgg) Validate() error {
	if p.Count < 0 || p.RawN < 0 || p.RawN > p.Count || p.Zeros < 0 || p.Zeros > p.RawN {
		return fmt.Errorf("%w: counts", ErrBadPartial)
	}
	pos, err := p.Pos.total(p.RawN - p.Zeros)
	if err != nil {
		return err
	}
	neg, err := p.Neg.total(p.RawN - p.Zeros - pos)
	if err != nil {
		return err
	}
	if p.Zeros+pos+neg != p.RawN {
		return fmt.Errorf("%w: histogram holds %d of %d raw samples", ErrBadPartial, p.Zeros+pos+neg, p.RawN)
	}
	return nil
}

// quantile walks the histogram in value order — negative buckets by
// descending index (ascending value), zeros, positive buckets by
// ascending index — and returns the representative of the bucket
// holding the rank-q sample, clamped to [Min, Max]. The rank is the
// ceiling of the exact interpolated rank, so the estimate is
// upper-biased like the tier-only degradation (P95 = Max) rather than
// under-reporting tail latencies.
func (p *PartialAgg) quantile(q float64) float64 {
	rank := int64(math.Ceil(q / 100 * float64(p.RawN-1)))
	var cum int64
	for i := len(p.Neg.N) - 1; i >= 0; i-- {
		if cum += p.Neg.N[i]; cum > rank {
			return p.clamp(-histRep(int(p.Neg.Lo) + i))
		}
	}
	if cum += p.Zeros; cum > rank {
		return p.clamp(0)
	}
	for i, n := range p.Pos.N {
		if cum += n; cum > rank {
			return p.clamp(histRep(int(p.Pos.Lo) + i))
		}
	}
	return p.Max
}

func (p *PartialAgg) clamp(v float64) float64 {
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	return v
}

// Finish resolves the partial into a client-facing Agg. ok is false
// when the partial is empty.
func (p *PartialAgg) Finish() (Agg, bool) {
	if p.Count == 0 {
		return Agg{}, false
	}
	a := Agg{
		Count:   int(p.Count),
		Min:     p.Min,
		Max:     p.Max,
		Mean:    p.Sum / float64(p.Count),
		FirstTS: p.FirstTS,
		LastTS:  p.LastTS,
	}
	if p.RawN > 0 {
		if dt := p.RawLastTS - p.RawFirstTS; dt > 0 {
			a.RatePerS = (p.LastV - p.FirstV) / (float64(dt) / 1e9)
		}
		a.P50 = p.quantile(50)
		a.P95 = p.quantile(95)
		a.P99 = p.quantile(99)
	} else {
		a.P50 = a.Mean
		a.P95 = a.Max
		a.P99 = a.Max
	}
	return a, true
}

// FoldPartial folds the raw samples and tier summaries of every series
// in keys over [from, to] into p — the data walk of Aggregate, in
// mergeable form. Keys with no live series contribute nothing.
func (s *Store) FoldPartial(keys []SeriesKey, from, to int64, p *PartialAgg) {
	defer observeQuery(time.Now())
	s.visitKeys(keys, from, to, p.observeBucket, p.observe)
}

// visitKeys runs visitLocked over [from, to] on every live series in
// keys, in order, each under its own lock.
func (s *Store) visitKeys(keys []SeriesKey, from, to int64, bucket func(start int64, count uint32, min, max, sum float64), sample func(ts int64, v float64)) {
	for _, k := range keys {
		if se := s.lookup(k); se != nil {
			se.mu.Lock()
			se.visitLocked(from, to, bucket, sample)
			se.mu.Unlock()
		}
	}
}

// PartialAggregate computes the mergeable aggregate of one series over
// [from, to]. ok is false when nothing falls in range.
func (s *Store) PartialAggregate(k SeriesKey, from, to int64) (PartialAgg, bool) {
	var p PartialAgg
	s.FoldPartial([]SeriesKey{k}, from, to, &p)
	return p, p.Count > 0
}

// maxWindowBuckets caps the bucket count of Window and PartialWindow to
// bound response sizes.
const maxWindowBuckets = 4096

// windowBuckets returns the bucket count of [from, to) in step-wide
// buckets, capped at maxWindowBuckets, and the end of the last bucket.
// The span to − from is taken in uint64: it exceeds MaxInt64 when from
// and to lie far apart on either side of zero. A capped end lies below
// to, so the wrapping int64 arithmetic that computes it lands on it.
func windowBuckets(from, to, step int64) (nb, end int64) {
	if step <= 0 || to <= from {
		return 0, to
	}
	n := (uint64(to)-uint64(from)-1)/uint64(step) + 1
	if n > maxWindowBuckets {
		return maxWindowBuckets, from + maxWindowBuckets*step
	}
	return int64(n), to
}

// bucketOf returns the index of the step-wide bucket of a window
// starting at from that holds ts ≥ from, without overflowing on spans
// wider than MaxInt64.
func bucketOf(ts, from, step int64) uint64 {
	return (uint64(ts) - uint64(from)) / uint64(step)
}

// bucketBounds returns bucket b of the window [from, to): it starts at
// from + b·step and ends step later or at to, whichever comes first.
func bucketBounds(from, to, step, b int64) (lo, hi int64) {
	lo = from + b*step
	if uint64(to)-uint64(lo) <= uint64(step) {
		return lo, to
	}
	return lo, lo + step
}

// NewPartialWindow returns [from, to) sliced into step-wide empty
// buckets (the last one truncated at to, at most 4096 of them) — the
// bucket list FoldPartialWindow fills and MergePartialWindows merges.
// It is nil when step ≤ 0 or to ≤ from.
func NewPartialWindow(from, to, step int64) []PartialBucket {
	nb, to := windowBuckets(from, to, step)
	if nb == 0 {
		return nil
	}
	out := make([]PartialBucket, nb)
	for b := range out {
		lo, hi := bucketBounds(from, to, step, int64(b))
		out[b] = PartialBucket{FromTS: lo, ToTS: hi}
	}
	return out
}

// FoldPartialWindow folds every series in keys into w, a bucket list
// from NewPartialWindow: each raw sample and tier summary in
// [w[0].FromTS, w[len(w)-1].ToTS) lands in the bucket holding its
// timestamp. Folding all of a query's series into one list costs one
// pass over the samples in range and no allocation per series.
func (s *Store) FoldPartialWindow(keys []SeriesKey, w []PartialBucket) {
	defer observeQuery(time.Now())
	if len(w) == 0 {
		return
	}
	from, to := w[0].FromTS, w[len(w)-1].ToTS
	step := w[0].ToTS - from
	s.visitKeys(keys, from, to-1, func(start int64, count uint32, min, max, sum float64) {
		w[bucketOf(start, from, step)].Agg.observeBucket(start, count, min, max, sum)
	}, func(ts int64, v float64) {
		w[bucketOf(ts, from, step)].Agg.observe(ts, v)
	})
}

// PartialWindow is Window in mergeable form: [from, to) sliced into
// step-width buckets, each a PartialAgg. Shards answering the same
// (from, to, step) produce aligned bucket lists the root merges
// index-by-index with MergePartialWindows.
func (s *Store) PartialWindow(k SeriesKey, from, to, step int64) []PartialBucket {
	w := NewPartialWindow(from, to, step)
	s.FoldPartialWindow([]SeriesKey{k}, w)
	return w
}

// MergePartialWindows folds src into dst bucket-by-bucket and returns
// dst. A nil dst adopts a deep copy of src. Bucket lists must come from
// the same (from, to, step) — they are matched by index; a length
// mismatch keeps dst's extent and merges the overlap.
func MergePartialWindows(dst, src []PartialBucket) []PartialBucket {
	if dst == nil {
		dst = make([]PartialBucket, len(src))
		for i := range src {
			dst[i] = PartialBucket{FromTS: src[i].FromTS, ToTS: src[i].ToTS}
		}
	}
	n := min(len(dst), len(src))
	for i := 0; i < n; i++ {
		dst[i].Agg.Merge(&src[i].Agg)
	}
	return dst
}

// PartialLeg is one store's answer to a federated query: the merged
// partial of every series the query selects (Series counts them), as
// one aggregate or, for a stepped query, as the full bucket grid. Its
// JSON form is the /tsdb/partial body; the PER form of its field walk
// (AppendLeg, DecodeLeg) is the body of a fed-coord query leg
// (docs/FEDERATION.md).
type PartialLeg struct {
	Series  int64           `json:"series"`
	Agg     PartialAgg      `json:"agg"`
	Buckets []PartialBucket `json:"buckets,omitempty"`
}

func (l *PartialLeg) walk(f walk.Fields) {
	f.I64(16, &l.Series)
	l.Agg.walk(f)
	walk.ListOf(f, 17, &l.Buckets, (*PartialBucket).walk)
}

// Merge folds src into l: series add up, aggregates merge, and bucket
// lists merge index by index (see MergePartialWindows).
func (l *PartialLeg) Merge(src *PartialLeg) {
	l.Series += src.Series
	l.Agg.Merge(&src.Agg)
	l.Buckets = MergePartialWindows(l.Buckets, src.Buckets)
}

// Partial folds every series q selects — fn and field exactly, agent
// and UE exactly or, when -1, every one — over [q.From, q.To] into one
// aggregate or, with q.StepNS > 0, over [q.From, q.To) into the
// StepNS-wide bucket grid NewPartialWindow returns. Series are folded
// in key order, so the answer repeats bit for bit.
func (s *Store) Partial(q Query) PartialLeg {
	keys := s.Keys(func(k SeriesKey) bool {
		return k.Fn == q.Fn && k.Field == q.Field &&
			(q.Agent < 0 || k.Agent == uint32(q.Agent)) && (q.UE < 0 || k.UE == uint16(q.UE))
	})
	leg := PartialLeg{Series: int64(len(keys))}
	if q.StepNS > 0 {
		leg.Buckets = NewPartialWindow(q.From, q.To, q.StepNS)
		s.FoldPartialWindow(keys, leg.Buckets)
	} else {
		s.FoldPartial(keys, q.From, q.To, &leg.Agg)
	}
	return leg
}
