package tsdb

import (
	"math"
	"reflect"
	"testing"
)

// legStore holds 128 series (two agents × 64 UEs) of one field, a
// sample every 10 ms over [0, 1 s), with values from v.
func legStore(v func(ue uint16, ts int64) float64) *Store {
	st := New(Config{})
	for agent := uint32(1); agent <= 2; agent++ {
		for ue := uint16(0); ue < 64; ue++ {
			k := SeriesKey{Agent: agent, Fn: 142, UE: ue, Field: FieldCQI}
			for ts := int64(0); ts < 1e9; ts += 1e7 {
				st.Append(k, ts, v(ue, ts))
			}
		}
	}
	return st
}

// cqiLike spans CQI 1–15; txBitsLike spans five decades, as tx_bits
// does across UEs and slots.
func cqiLike(ue uint16, ts int64) float64 { return float64(1 + (int64(ue)+ts/1e7)%15) }

func txBitsLike(ue uint16, ts int64) float64 {
	frac := float64((int64(ue)*7919+ts/1e7*104729)%1000) / 1000
	return math.Round(math.Pow(10, 3+5*frac))
}

// TestLegRoundTrip: the PER body of a windowed leg, an aggregate leg
// and a last=K answer from a real store decodes to exactly what the
// shard encoded, and a body cut short or with a byte after it does not
// decode.
func TestLegRoundTrip(t *testing.T) {
	st := legStore(txBitsLike)
	st.Append(SeriesKey{Agent: 3, Fn: 142, UE: 1, Field: FieldCQI}, 5e8, -3)
	st.Append(SeriesKey{Agent: 3, Fn: 142, UE: 2, Field: FieldCQI}, 5e8, 0)
	q := Query{Agent: -1, UE: -1, Fn: 142, Field: FieldCQI, From: 0, To: 1e9}
	windowed := q
	windowed.StepNS = 1e8
	for name, leg := range map[string]PartialLeg{
		"windowed":  st.Partial(windowed),
		"aggregate": st.Partial(q),
		"empty":     st.Partial(Query{Agent: 9, UE: -1, Fn: 142, Field: FieldCQI, From: 0, To: 1e9, StepNS: 3e8}),
	} {
		body := AppendLeg(nil, &leg)
		got, err := DecodeLeg(body)
		if err != nil || !reflect.DeepEqual(got, leg) {
			t.Fatalf("%s: decoded %+v, %v; want %+v", name, got, err, leg)
		}
		if _, err := DecodeLeg(body[:len(body)-1]); err == nil {
			t.Fatalf("%s: a truncated body decoded", name)
		}
		if _, err := DecodeLeg(append(body, 0)); err == nil {
			t.Fatalf("%s: a body with a trailing byte decoded", name)
		}
	}
	want := st.LastK(SeriesKey{Agent: 2, Fn: 142, UE: 7, Field: FieldCQI}, 5, nil)
	body := AppendSamples(nil, want)
	got, err := DecodeSamples(body)
	if err != nil || len(want) != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("last=5: decoded %v, %v; want %v", got, err, want)
	}
	if _, err := DecodeSamples(append(body, 0)); err == nil {
		t.Fatal("samples with a trailing byte decoded")
	}
}

// TestPartialFoldAllocs gates the allocations of one windowed fold
// over 128 series into 10 buckets: the key list, the bucket grid and
// about one histogram run per bucket, however many samples land in it.
// Runs that regrew with every new extreme took 58 (CQI-like values) and
// 46 (tx_bits-like values) allocations.
func TestPartialFoldAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		v    func(uint16, int64) float64
		max  float64
	}{
		{"cqi", cqiLike, 24},
		{"tx_bits", txBitsLike, 36},
	} {
		st := legStore(c.v)
		q := Query{Agent: -1, UE: -1, Fn: 142, Field: FieldCQI, From: 0, To: 1e9, StepNS: 1e8}
		n := testing.AllocsPerRun(10, func() { st.Partial(q) })
		t.Logf("%s: %.0f allocations per fold", c.name, n)
		if n > c.max {
			t.Errorf("%s: %.0f allocations per fold, want at most %.0f", c.name, n, c.max)
		}
	}
}
