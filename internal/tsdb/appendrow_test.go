package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// hookRec is one sample as the append hook saw it.
type hookRec struct {
	k  SeriesKey
	ts int64
	v  float64
}

// recordHook installs a hook on s that records every sample it sees.
func recordHook(s *Store) *[]hookRec {
	var got []hookRec
	s.SetAppendHook(func(k SeriesKey, ts int64, v float64) { got = append(got, hookRec{k, ts, v}) })
	return &got
}

// TestAppendRowMatchesAppend is the AppendRow property: random report
// rows written with AppendRow leave a store — ring, compressed, or aged —
// answering every query exactly like a store fed the same samples one
// Append at a time, and the append hook sees the same (key, ts, value)
// sequence.
func TestAppendRowMatchesAppend(t *testing.T) {
	configs := map[string]Config{
		"ring":            {Capacity: 16},
		"ring-maxage":     {Capacity: 16, MaxAge: 20 * time.Millisecond},
		"compressed":      {Capacity: 8, Compress: true, MaxChunks: 3, Tier1Cap: 8, Tier2Cap: 4},
		"compressed-aged": {Capacity: 8, Compress: true, MaxAge: 30 * time.Millisecond},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			rows, byOne := New(cfg), New(cfg)
			gotRows, gotOne := recordHook(rows), recordHook(byOne)
			ts := int64(1e9)
			for r := 0; r < 3000; r++ {
				k := SeriesKey{Agent: uint32(rng.Intn(2)), Fn: uint16(142 + rng.Intn(3)), UE: uint16(rng.Intn(6))}
				perm := rng.Perm(int(numFields))[:1+rng.Intn(int(numFields))]
				fields := make([]Field, len(perm))
				vs := make([]float64, len(perm))
				for i, f := range perm {
					fields[i] = Field(f)
					vs[i] = float64(rng.Intn(1000)) + rng.Float64()
				}
				if rng.Intn(25) == 0 {
					ts -= rng.Int63n(5e6) // an out-of-order row
				} else {
					ts += rng.Int63n(2e6)
				}
				rows.AppendRow(k, fields, ts, vs)
				for i, f := range fields {
					k.Field = f
					byOne.Append(k, ts, vs[i])
				}
			}
			if !reflect.DeepEqual(*gotRows, *gotOne) {
				t.Fatalf("hook sequences differ: %d vs %d samples", len(*gotRows), len(*gotOne))
			}
			if got, want := rows.List(-1, 0), byOne.List(-1, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("List differs:\n%+v\n%+v", got, want)
			}
			if got, want := rows.Stats(), byOne.Stats(); got != want {
				t.Fatalf("Stats differ:\n%+v\n%+v", got, want)
			}
			from, to, step := int64(1e9), ts+1, int64(50e6)
			for _, k := range byOne.Keys(func(SeriesKey) bool { return true }) {
				if got, want := rows.LastK(k, 64, nil), byOne.LastK(k, 64, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v: LastK differs", k)
				}
				ga, gok := rows.Aggregate(k, math.MinInt64, math.MaxInt64)
				wa, wok := byOne.Aggregate(k, math.MinInt64, math.MaxInt64)
				if gok != wok || ga != wa {
					t.Fatalf("%+v: Aggregate %+v, want %+v", k, ga, wa)
				}
				if got, want := rows.Window(k, from, to, step), byOne.Window(k, from, to, step); !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v: Window differs", k)
				}
				if got, want := rows.PartialWindow(k, from, to, step), byOne.PartialWindow(k, from, to, step); !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v: PartialWindow differs", k)
				}
			}
		})
	}
}

// TestAppendRowConcurrentFirstTouch: writers racing to append the first
// sample of one nine-field row create exactly one series per field — no
// writer's sample lands in a series that lost the race — and the
// tsdb.series gauge counts each once.
func TestAppendRowConcurrentFirstTouch(t *testing.T) {
	fields := []Field{FieldTxPackets, FieldTxBytes, FieldRxPackets, FieldRxBytes,
		FieldDropPackets, FieldDropBytes, FieldBufferBytes, FieldBufferPkts, FieldSojournMS}
	const writers = 8
	for round := 0; round < 50; round++ {
		s := New(Config{Capacity: 64})
		before := tel.series.Load()
		k := SeriesKey{Agent: 3, Fn: 143, UE: uint16(round)}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				vs := make([]float64, len(fields))
				for i := range vs {
					vs[i] = float64(w)
				}
				<-start
				s.AppendRow(k, fields, int64(w), vs)
			}(w)
		}
		close(start)
		wg.Wait()
		if n := s.NumSeries(); n != len(fields) {
			t.Fatalf("round %d: %d series, want %d", round, n, len(fields))
		}
		for _, f := range fields {
			k.Field = f
			if n := len(s.LastK(k, writers, nil)); n != writers {
				t.Fatalf("round %d: %v holds %d samples, want %d", round, f, n, writers)
			}
		}
		if d := tel.series.Load() - before; d != int64(s.NumSeries()) {
			t.Fatalf("round %d: tsdb.series grew by %d for %d series", round, d, s.NumSeries())
		}
	}
}

// TestAppendRowShape: a row whose fields and values differ in length, or
// one wider than the field set, is a caller bug and panics.
func TestAppendRowShape(t *testing.T) {
	s := New(Config{})
	for name, row := range map[string]struct {
		fields []Field
		vs     []float64
	}{
		"short values":  {[]Field{FieldCQI, FieldMCS}, []float64{1}},
		"short fields":  {[]Field{FieldCQI}, []float64{1, 2}},
		"too wide":      {make([]Field, numFields+1), make([]float64, numFields+1)},
		"unknown field": {[]Field{FieldCQI, numFields}, []float64{1, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AppendRow did not panic", name)
				}
			}()
			s.AppendRow(SeriesKey{}, row.fields, 0, row.vs)
		}()
	}
	if n := s.NumSeries(); n != 0 {
		t.Fatalf("a rejected row created %d series", n)
	}
}

// TestFieldOutsideSet: no series can have a Field outside the field set.
// Append panics on one like AppendRow does, a query for one finds
// nothing, and neither leaves a lock held behind.
func TestFieldOutsideSet(t *testing.T) {
	s := New(Config{Capacity: 8})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldCQI}
	s.Append(k, 1, 1)
	bad := k
	bad.Field = numFields
	func() {
		defer func() {
			// Only the store's own check may fire: a panic from indexing
			// the row would leave the shard lock held.
			if r := recover(); !strings.HasPrefix(fmt.Sprint(r), "tsdb: Append:") {
				t.Fatalf("Append panicked with %v, want the field check", r)
			}
		}()
		s.Append(bad, 2, 2)
	}()
	if got := s.LastK(bad, 8, nil); len(got) != 0 {
		t.Fatalf("LastK found %d samples", len(got))
	}
	if _, ok := s.Aggregate(bad, math.MinInt64, math.MaxInt64); ok {
		t.Fatal("Aggregate found a series")
	}
	if _, ok := s.PartialAggregate(bad, math.MinInt64, math.MaxInt64); ok {
		t.Fatal("PartialAggregate found a series")
	}
	s.Append(k, 3, 3)
	if n, got := s.NumSeries(), s.LastK(k, 8, nil); n != 1 || len(got) != 2 {
		t.Fatalf("%d series, %d samples after the rejected appends; want 1, 2", n, len(got))
	}
}

// TestEvictThenAppendRow: a row appended after its agent was evicted
// starts fresh series, and the tsdb.series gauge returns to where it was
// before the eviction.
func TestEvictThenAppendRow(t *testing.T) {
	fields := []Field{FieldCQI, FieldMCS, FieldRBsUsed}
	vs := []float64{1, 2, 3}
	s := New(Config{Capacity: 8})
	before := tel.series.Load()
	for agent := uint32(1); agent <= 2; agent++ {
		for ue := uint16(0); ue < 4; ue++ {
			s.AppendRow(SeriesKey{Agent: agent, Fn: 142, UE: ue}, fields, 1, vs)
		}
	}
	full := tel.series.Load()
	if d := full - before; d != 24 {
		t.Fatalf("tsdb.series grew by %d, want 24", d)
	}
	s.EvictAgent(1)
	if n, d := s.NumSeries(), full-tel.series.Load(); n != 12 || d != 12 {
		t.Fatalf("after evict: %d series, gauge down %d; want 12, 12", n, d)
	}
	for ue := uint16(0); ue < 4; ue++ {
		s.AppendRow(SeriesKey{Agent: 1, Fn: 142, UE: ue}, fields, 2, vs)
	}
	if n, g := s.NumSeries(), tel.series.Load(); n != 24 || g != full {
		t.Fatalf("after re-append: %d series, gauge %d; want 24, %d", n, g, full)
	}
	for _, f := range fields {
		got := s.LastK(SeriesKey{Agent: 1, Fn: 142, UE: 3, Field: f}, 8, nil)
		if len(got) != 1 || got[0].TS != 2 {
			t.Fatalf("%v: %+v, want the one post-evict sample", f, got)
		}
	}
}

// TestSnapshotThenAppendRow: rows appended after a restore land on the
// restored series, not beside them.
func TestSnapshotThenAppendRow(t *testing.T) {
	fields := []Field{FieldTxPackets, FieldTxBytes}
	src := New(Config{Capacity: 16})
	for ue := uint16(0); ue < 3; ue++ {
		src.AppendRow(SeriesKey{Agent: 7, Fn: 144, UE: ue}, fields, 1, []float64{1, 10})
	}
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(Config{Capacity: 16})
	if err := dst.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want := dst.Stats().Series
	for ue := uint16(0); ue < 3; ue++ {
		dst.AppendRow(SeriesKey{Agent: 7, Fn: 144, UE: ue}, fields, 2, []float64{2, 20})
	}
	if got := dst.Stats().Series; got != want || got != 6 {
		t.Fatalf("Stats().Series %d after appending, want %d (6)", got, want)
	}
	k := SeriesKey{Agent: 7, Fn: 144, UE: 2, Field: FieldTxBytes}
	if got := dst.LastK(k, 8, nil); !reflect.DeepEqual(got, []Sample{{1, 10}, {2, 20}}) {
		t.Fatalf("LastK %+v, want the restored sample then the new one", got)
	}
}

// TestAppendAndAppendRowShareSeries: Append and AppendRow address one
// series per (row, field), whichever of them creates it.
func TestAppendAndAppendRowShareSeries(t *testing.T) {
	s := New(Config{Capacity: 8})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 5}
	cqi, mcs := k, k
	cqi.Field, mcs.Field = FieldCQI, FieldMCS
	s.Append(cqi, 1, 1)
	s.AppendRow(k, []Field{FieldCQI, FieldMCS}, 2, []float64{2, 20})
	s.Append(mcs, 3, 30)
	if n := s.NumSeries(); n != 2 {
		t.Fatalf("%d series, want 2", n)
	}
	if got := s.LastK(cqi, 8, nil); !reflect.DeepEqual(got, []Sample{{1, 1}, {2, 2}}) {
		t.Fatalf("cqi %+v", got)
	}
	if got := s.LastK(mcs, 8, nil); !reflect.DeepEqual(got, []Sample{{2, 20}, {3, 30}}) {
		t.Fatalf("mcs %+v", got)
	}
}
