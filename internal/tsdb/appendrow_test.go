package tsdb

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"flexric/internal/telemetry"
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
		if d := tel.series.Load() - before; telemetry.Enabled && d != int64(s.NumSeries()) {
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
		"short values": {[]Field{FieldCQI, FieldMCS}, []float64{1}},
		"short fields": {[]Field{FieldCQI}, []float64{1, 2}},
		"too wide":     {make([]Field, numFields+1), make([]float64, numFields+1)},
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
