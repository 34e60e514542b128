package tsdb

// tiers.go — downsampling retention tiers. When chunk retention
// (Config.MaxChunks / Config.MaxAge) pushes a sealed chunk out of the
// raw domain, its samples are folded into the 1-second tier as
// count/min/max/sum summary buckets; when the 1-second ring wraps, the
// evicted bucket folds into the 1-minute tier; when that wraps, the
// bucket is dropped (tsdb.tier_buckets_dropped counts the loss). Old
// data therefore shrinks twice — raw → 40 B/s → 40 B/min per series —
// before it vanishes. Query semantics over tier data are documented in
// docs/TSDB.md (aggregates are exact for count/min/max/mean; rate and
// percentiles need raw samples).
//
// A tier holds what it has seen: a series gets its ladder at its first
// fold, a tier's ring is allocated at its first bucket and doubles as
// buckets arrive, up to Config.Tier1Cap / Tier2Cap. The caps stay
// ceilings; only a ring at its cap evicts.

// Tier widths. Tier 1 summarizes to 1-second buckets, tier 2 to
// 1-minute buckets (timestamps are nanoseconds).
const (
	tier1Width = int64(1e9)
	tier2Width = int64(60e9)
)

// bucket summarizes the samples whose timestamps fall in
// [start, start+width) of its tier.
type bucket struct {
	start         int64
	count         uint32
	min, max, sum float64
}

// tier is one downsampling ring of summary buckets, oldest first from
// head. Buckets arrive oldest-first (chunks fold in seal order), so the
// ring is time-ordered for well-behaved writers. b is the ring's
// storage: it grows by doubling up to limit, and only a ring of limit
// buckets evicts. A limit of 0 holds nothing.
type tier struct {
	width   int64
	limit   int
	b       []bucket
	head, n int
}

// ladder is a series' pair of tiers: tier 1 evicts into tier 2, tier 2
// drops what it evicts.
type ladder struct {
	t1, t2 tier
}

func newLadder(t1Cap, t2Cap int) *ladder {
	return &ladder{
		t1: tier{width: tier1Width, limit: t1Cap},
		t2: tier{width: tier2Width, limit: t2Cap},
	}
}

// noTiers is what a compressed series without a ladder reads as: two
// empty tiers of the standard widths.
var noTiers = ladder{t1: tier{width: tier1Width}, t2: tier{width: tier2Width}}

// foldSample merges one raw sample into tier 1.
func (l *ladder) foldSample(ts int64, v float64) {
	l.fold1(bucket{start: ts, count: 1, min: v, max: v, sum: v})
}

// fold1 merges b into tier 1 and carries what tier 1 evicts into
// tier 2.
func (l *ladder) fold1(b bucket) {
	if out, ok := l.t1.fold(b); ok {
		l.fold2(out)
		tel.tierFolds.Inc()
	}
}

// fold2 merges b into tier 2 and counts what it evicts as dropped.
func (l *ladder) fold2(b bucket) {
	if _, ok := l.t2.fold(b); ok {
		tel.tierDrops.Inc()
	}
}

// bucketStart aligns ts down to the tier's bucket grid. Alignment is
// floored toward negative infinity so negative (simulated-clock)
// timestamps bucket consistently.
func (t *tier) bucketStart(ts int64) int64 {
	s := ts / t.width * t.width
	if ts < 0 && ts%t.width != 0 {
		s -= t.width
	}
	return s
}

// fold merges in (its start aligned to the tier's grid first) and
// returns the bucket it evicted to make room, if any. Same-bucket folds
// merge; a new bucket start appends, growing the ring below its limit
// and evicting the oldest bucket at it. An out-of-order start (older
// than the newest bucket) is merged into the newest bucket rather than
// reordering the ring — the summary stays conservative and the ring
// stays time-sorted.
func (t *tier) fold(in bucket) (out bucket, evicted bool) {
	in.start = t.bucketStart(in.start)
	if t.n > 0 {
		last := t.head + t.n - 1
		if last >= len(t.b) {
			last -= len(t.b)
		}
		if b := &t.b[last]; in.start <= b.start {
			b.count += in.count
			if in.min < b.min {
				b.min = in.min
			}
			if in.max > b.max {
				b.max = in.max
			}
			b.sum += in.sum
			return out, false
		}
	}
	if t.n == len(t.b) {
		if t.n < t.limit {
			t.grow()
		} else if t.n == 0 {
			return in, true
		} else {
			out, evicted = t.b[t.head], true
			if t.head++; t.head == len(t.b) {
				t.head = 0
			}
			t.n--
		}
	}
	i := t.head + t.n
	if i >= len(t.b) {
		i -= len(t.b)
	}
	t.b[i] = in
	t.n++
	return out, evicted
}

// grow doubles the full ring's storage, capped at limit, and unrolls it
// so the oldest bucket sits at index 0.
func (t *tier) grow() {
	b := make([]bucket, min(max(2*len(t.b), 1), t.limit))
	k := copy(b, t.b[t.head:])
	copy(b[k:], t.b[:t.head])
	t.b, t.head = b, 0
}

// at returns the i-th oldest bucket.
func (t *tier) at(i int) *bucket {
	j := t.head + i
	if j >= len(t.b) {
		j -= len(t.b)
	}
	return &t.b[j]
}

// visit calls fn for every bucket whose start lies in [from, to],
// oldest first. Tier data is attributed at bucket granularity: a
// bucket belongs to the window containing its start timestamp.
func (t *tier) visit(from, to int64, fn func(start int64, count uint32, min, max, sum float64)) {
	for i := 0; i < t.n; i++ {
		if b := t.at(i); b.start >= from && b.start <= to {
			fn(b.start, b.count, b.min, b.max, b.sum)
		}
	}
}

// samples returns the total sample count summarized by the tier.
func (t *tier) samples() int {
	var n int
	for i := 0; i < t.n; i++ {
		n += int(t.at(i).count)
	}
	return n
}
