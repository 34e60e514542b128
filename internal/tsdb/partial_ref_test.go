package tsdb

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPartial is the map-histogram PartialAgg the dense run replaced,
// kept as the reference the dense form must match bit for bit. Its
// scalar rules are the current ones (earliest and latest timestamps,
// ties to the sample folded first) and it shares histIdx and histRep,
// so the two differ only in how the histogram is stored, merged and
// walked.
type refPartial struct {
	Count                 int
	Min, Max, Sum         float64
	FirstTS, LastTS       int64
	RawN                  int
	RawFirstTS, RawLastTS int64
	FirstV, LastV         float64
	Zeros                 int
	Pos, Neg              map[int]int
}

func (p *refPartial) observe(ts int64, v float64) {
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
		if p.Pos == nil {
			p.Pos = make(map[int]int)
		}
		p.Pos[histIdx(v)]++
	case v < 0:
		if p.Neg == nil {
			p.Neg = make(map[int]int)
		}
		p.Neg[histIdx(-v)]++
	default:
		p.Zeros++
	}
}

func (p *refPartial) observeBucket(start int64, count uint32, min, max, sum float64) {
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
	p.Count += int(count)
}

func (p *refPartial) Merge(src *refPartial) {
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
	for idx, n := range src.Pos {
		if p.Pos == nil {
			p.Pos = make(map[int]int, len(src.Pos))
		}
		p.Pos[idx] += n
	}
	for idx, n := range src.Neg {
		if p.Neg == nil {
			p.Neg = make(map[int]int, len(src.Neg))
		}
		p.Neg[idx] += n
	}
}

func (p *refPartial) quantile(q float64) float64 {
	rank := int(math.Ceil(q / 100 * float64(p.RawN-1)))
	cum := 0
	pick := func(rep float64, n int) (float64, bool) {
		cum += n
		if cum > rank {
			if rep < p.Min {
				rep = p.Min
			}
			if rep > p.Max {
				rep = p.Max
			}
			return rep, true
		}
		return 0, false
	}
	negIdx := make([]int, 0, len(p.Neg))
	for idx := range p.Neg {
		negIdx = append(negIdx, idx)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(negIdx)))
	for _, idx := range negIdx {
		if v, ok := pick(-histRep(idx), p.Neg[idx]); ok {
			return v
		}
	}
	if p.Zeros > 0 {
		if v, ok := pick(0, p.Zeros); ok {
			return v
		}
	}
	posIdx := make([]int, 0, len(p.Pos))
	for idx := range p.Pos {
		posIdx = append(posIdx, idx)
	}
	sort.Ints(posIdx)
	for _, idx := range posIdx {
		if v, ok := pick(histRep(idx), p.Pos[idx]); ok {
			return v
		}
	}
	return p.Max
}

func (p *refPartial) Finish() (Agg, bool) {
	if p.Count == 0 {
		return Agg{}, false
	}
	a := Agg{
		Count:   p.Count,
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

// sameAgg compares two aggregates bit for bit (NaN equals itself).
func sameAgg(a, b Agg) bool {
	f := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Count == b.Count && a.FirstTS == b.FirstTS && a.LastTS == b.LastTS &&
		f(a.Min, b.Min) && f(a.Max, b.Max) && f(a.Mean, b.Mean) && f(a.RatePerS, b.RatePerS) &&
		f(a.P50, b.P50) && f(a.P95, b.P95) && f(a.P99, b.P99)
}

// randValue draws from the histogram's hard cases: negatives, zeros,
// the extremes of the finite range, infinities, NaN, and a small pool
// of repeats.
func randValue(rng *rand.Rand) float64 {
	pool := []float64{1, 7, 7.5, -3, 1e-300, -1e300}
	sign := float64(1 - 2*rng.Intn(2))
	switch r := rng.Intn(100); {
	case r < 30:
		return pool[rng.Intn(len(pool))]
	case r < 40:
		return 0
	case r < 60:
		return sign * math.Pow(10, rng.Float64()*600-300)
	case r < 70:
		return sign * float64(rng.Intn(1000))
	case r < 74:
		return sign * math.MaxFloat64
	case r < 78:
		return sign * math.SmallestNonzeroFloat64
	case r < 81:
		return math.Inf(int(sign))
	case r < 82:
		return math.NaN()
	default:
		return sign * rng.ExpFloat64() * 1e6
	}
}

// TestPartialDenseMatchesReference is the property test of the dense
// histogram: random sample sets (tier summaries included) folded into
// leaves, merged along a random tree, must finish bit for bit like the
// map-based reference at every node of the tree.
func TestPartialDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		leaves := 1 + rng.Intn(6)
		dense := make([]PartialAgg, leaves)
		ref := make([]refPartial, leaves)
		for l := range dense {
			for n := rng.Intn(60); n > 0; n-- {
				ts := int64(rng.Intn(40) - 20) // repeats and negatives
				if rng.Intn(10) == 0 {
					lo, hi := randValue(rng), randValue(rng)
					dense[l].observeBucket(ts, 3, lo, hi, lo+hi)
					ref[l].observeBucket(ts, 3, lo, hi, lo+hi)
					continue
				}
				v := randValue(rng)
				dense[l].observe(ts, v)
				ref[l].observe(ts, v)
			}
			if !(dense[l].Count == 0 || dense[l].Validate() == nil) {
				t.Fatalf("trial %d leaf %d: a folded partial fails validation: %v", trial, l, dense[l].Validate())
			}
		}
		// Random merge tree: repeatedly fold one live node into another.
		live := make([]int, leaves)
		for i := range live {
			live[i] = i
		}
		for len(live) > 1 {
			i, j := rng.Intn(len(live)), rng.Intn(len(live)-1)
			if j >= i {
				j++
			}
			dst, src := live[i], live[j]
			dense[dst].Merge(&dense[src])
			ref[dst].Merge(&ref[src])
			live = append(live[:j], live[j+1:]...)
			if err := dense[dst].Validate(); dense[dst].Count > 0 && err != nil {
				t.Fatalf("trial %d: a merged partial fails validation: %v", trial, err)
			}
			d, dok := dense[dst].Finish()
			r, rok := ref[dst].Finish()
			if dok != rok || !sameAgg(d, r) {
				t.Fatalf("trial %d: dense %+v (%v) != reference %+v (%v)", trial, d, dok, r, rok)
			}
		}
		d, dok := dense[live[0]].Finish()
		r, rok := ref[live[0]].Finish()
		if dok != rok || !sameAgg(d, r) {
			t.Fatalf("trial %d: dense %+v (%v) != reference %+v (%v)", trial, d, dok, r, rok)
		}
	}
}
