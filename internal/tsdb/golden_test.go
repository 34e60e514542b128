package tsdb

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// The golden snapshots pin the FXTS bytes a fixed append sequence
// produces: the write head, every sealed chunk's bitstream and both
// downsampling tiers. Each golden file holds one single-series image
// per golden key, back to back (TestSnapshotDeterministic covers the
// order of series within one image). Rewrite them with -update only
// for a deliberate format change (and bump snapshotVersion with it).
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.fxts from the current store")

// goldenCases are the stores the golden snapshots come from. The
// sequence seals every series many times over, recycles retired chunks,
// folds into both tiers, wraps tier 1 and drops out of tier 2
// (compressed), seals on age across a silence (aged), and overwrites
// the ring (ring).
var goldenCases = []struct {
	name string
	cfg  Config
}{
	{"ring", Config{Capacity: 64, Shards: 4}},
	{"compressed", Config{Capacity: 32, Compress: true, MaxChunks: 3, Tier1Cap: 8, Tier2Cap: 2, Shards: 4}},
	{"aged", Config{Capacity: 32, Compress: true, MaxChunks: 16, MaxAge: 2 * time.Second, Tier1Cap: 8, Tier2Cap: 2, Shards: 4}},
}

var goldenKeys = []SeriesKey{
	{Agent: 1, Fn: 142, UE: 1, Field: FieldTxBits},
	{Agent: 1, Fn: 142, UE: 1, Field: FieldCQI},
	{Agent: 1, Fn: 143, UE: 7, Field: FieldSojournMS},
	{Agent: 2, Fn: 144, UE: 3, Field: FieldRxBytes},
}

// goldenBase is a wall-clock nanosecond epoch: jittered deltas of it
// put most timestamps in the 64-bit delta-of-delta escape.
const goldenBase = int64(1_700_000_000_000_000_000)

// goldenFill appends 3.5 minutes of 40 ms reports to golden key ki: a
// counter, a small-integer gauge, a noisy float or a second counter,
// with ±0.5 ms timestamp jitter, one backward step every 97 reports and
// a 5 s silence at the two-minute mark. A local xorshift keeps the
// sequence independent of math/rand.
func goldenFill(s *Store, ki int) {
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	ctr := [2]float64{}
	const n = 5250
	for i := 0; i < n; i++ {
		ts := goldenBase + int64(i)*int64(40*time.Millisecond) + int64(rnd()%1_000_000) - 500_000
		if i >= 3000 {
			ts += int64(5 * time.Second)
		}
		if i%97 == 96 {
			ts -= int64(3 * time.Millisecond)
		}
		ctr[0] += float64(1000 + rnd()%4096)
		ctr[1] += 1500
		vs := [...]float64{ctr[0], float64(rnd() % 16), float64(int64(rnd()%2_000_001)-1_000_000) / 1e3, ctr[1]}
		s.Append(goldenKeys[ki], ts, vs[ki])
	}
}

func snapshotBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGolden: the golden sequence writes the checked-in bytes
// exactly; loading them into a fresh store of the same config writes
// them back unchanged and answers every Window and Aggregate like the
// store that wrote them.
func TestSnapshotGolden(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			var got []byte
			lives := make([]*Store, len(goldenKeys))
			for ki := range goldenKeys {
				lives[ki] = New(gc.cfg)
				goldenFill(lives[ki], ki)
				got = append(got, snapshotBytes(t, lives[ki])...)
			}
			path := filepath.Join("testdata", gc.name+".fxts")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("snapshots differ from %s: %d bytes, golden %d", path, len(got), len(want))
			}
			images := splitImages(t, want)
			if len(images) != len(goldenKeys) {
				t.Fatalf("%s holds %d images, want %d", path, len(images), len(goldenKeys))
			}
			for ki, k := range goldenKeys {
				live := lives[ki]
				if st := live.Stats(); gc.cfg.Compress && (st.Chunks == 0 || st.Tier1.Buckets < gc.cfg.Tier1Cap || st.Tier2.Buckets == 0) {
					t.Fatalf("%v: sequence does not reach every domain: %+v", k, st)
				}
				loaded := New(gc.cfg)
				if err := loaded.ReadSnapshot(bytes.NewReader(images[ki])); err != nil {
					t.Fatal(err)
				}
				if again := snapshotBytes(t, loaded); !bytes.Equal(again, images[ki]) {
					t.Fatalf("%v: reloaded store writes %d bytes that differ from the golden %d", k, len(again), len(images[ki]))
				}
				if a, b := live.Stats(), loaded.Stats(); a != b {
					t.Fatalf("%v: stats diverge:\nlive:   %+v\nloaded: %+v", k, a, b)
				}
				assertSameAnswers(t, k, live, loaded)
			}
		})
	}
}

// TestSnapshotDeterministic: a store of many series writes its series
// in key order, so two snapshots of the unchanged store are the same
// bytes, and so is the snapshot of a store loaded from one.
func TestSnapshotDeterministic(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			live := New(gc.cfg)
			for ki := range goldenKeys {
				goldenFill(live, ki)
			}
			for ue := uint16(0); ue < 64; ue++ {
				for f := FieldCQI; f <= FieldThroughputBps; f++ {
					k := SeriesKey{Agent: 3 + uint32(ue%5), Fn: 142, UE: ue, Field: f}
					for i := int64(0); i < 40; i++ {
						live.Append(k, goldenBase+i*int64(40*time.Millisecond), float64(i*int64(ue+1)))
					}
				}
			}
			first := snapshotBytes(t, live)
			if again := snapshotBytes(t, live); !bytes.Equal(again, first) {
				t.Fatalf("two snapshots of one unchanged store differ (%d and %d bytes)", len(first), len(again))
			}
			loaded := New(gc.cfg)
			if err := loaded.ReadSnapshot(bytes.NewReader(first)); err != nil {
				t.Fatal(err)
			}
			if back := snapshotBytes(t, loaded); !bytes.Equal(back, first) {
				t.Fatalf("snapshot -> load -> snapshot differs (%d and %d bytes)", len(first), len(back))
			}
		})
	}
}

// splitImages cuts back-to-back snapshot images apart by loading each.
func splitImages(tb testing.TB, data []byte) [][]byte {
	tb.Helper()
	var out [][]byte
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		start := len(data) - r.Len()
		if err := New(Config{}).ReadSnapshot(r); err != nil {
			tb.Fatal(err)
		}
		out = append(out, data[start:len(data)-r.Len()])
	}
	return out
}

// assertSameAnswers compares Window at three steps and Aggregate over
// three spans of k across the golden sequence's time range.
func assertSameAnswers(t *testing.T, k SeriesKey, want, got *Store) {
	t.Helper()
	from, to := goldenBase-int64(time.Second), goldenBase+int64(4*time.Minute)
	for _, step := range []time.Duration{time.Second, 7 * time.Second, time.Minute} {
		if w, g := want.Window(k, from, to, int64(step)), got.Window(k, from, to, int64(step)); !reflect.DeepEqual(w, g) {
			t.Fatalf("%v step %v: Window diverges", k, step)
		}
	}
	for _, span := range [][2]int64{{math.MinInt64, math.MaxInt64}, {from, from + int64(90*time.Second)}, {to - int64(10*time.Second), to}} {
		w, ok1 := want.Aggregate(k, span[0], span[1])
		g, ok2 := got.Aggregate(k, span[0], span[1])
		if ok1 != ok2 || w != g {
			t.Fatalf("%v %v: Aggregate diverges:\nwant: %+v\ngot:  %+v", k, span, w, g)
		}
	}
}
