package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"flexric/internal/snapfile"
)

// populate fills a store with a realistic mixed workload: two agents,
// counter and gauge series, enough volume to cross head/chunk/tier
// domains under the given config.
func populate(s *Store, n int) {
	rng := rand.New(rand.NewSource(42))
	keys := []SeriesKey{
		{Agent: 1, Fn: 142, UE: 1, Field: FieldTxBytes},
		{Agent: 1, Fn: 142, UE: 1, Field: FieldCQI},
		{Agent: 1, Fn: 143, UE: 2, Field: FieldRxBytes},
		{Agent: 2, Fn: 144, UE: 1, Field: FieldSojournMS},
	}
	ctr := make([]float64, len(keys))
	for i := 0; i < n; i++ {
		ts := int64(i) * int64(time.Millisecond)
		for j, k := range keys {
			switch j {
			case 1: // gauge
				s.Append(k, ts, float64(rng.Intn(16)))
			default: // counters at different rates
				ctr[j] += float64(300 * (j + 1))
				s.Append(k, ts, ctr[j])
			}
		}
	}
}

// TestSnapshotRestartWindowedAggregates is the kill-and-restart golden
// test from the issue: write a snapshot, load it into a fresh store
// (simulating a controller restart), and require windowed queries to
// return identical aggregates — buckets, percentiles, rates, and all.
func TestSnapshotRestartWindowedAggregates(t *testing.T) {
	cfg := Config{Capacity: 256, Compress: true, MaxChunks: 4}
	before := New(cfg)
	populate(before, 8000)
	path := filepath.Join(t.TempDir(), "tsdb.snap")
	if err := snapfile.Save(before, path); err != nil {
		t.Fatal(err)
	}

	after := New(cfg) // the restarted controller
	if err := snapfile.Load(after, path); err != nil {
		t.Fatal(err)
	}
	if got, want := after.NumSeries(), before.NumSeries(); got != want {
		t.Fatalf("restored %d series, want %d", got, want)
	}
	for _, k := range []SeriesKey{
		{Agent: 1, Fn: 142, UE: 1, Field: FieldTxBytes},
		{Agent: 1, Fn: 142, UE: 1, Field: FieldCQI},
		{Agent: 2, Fn: 144, UE: 1, Field: FieldSojournMS},
	} {
		wantW := before.Window(k, 0, 8000*int64(time.Millisecond), int64(time.Second))
		gotW := after.Window(k, 0, 8000*int64(time.Millisecond), int64(time.Second))
		if !reflect.DeepEqual(wantW, gotW) {
			t.Fatalf("%v: windowed aggregates diverge after restore", k)
		}
		wantA, ok1 := before.Aggregate(k, 0, math.MaxInt64)
		gotA, ok2 := after.Aggregate(k, 0, math.MaxInt64)
		if !ok1 || !ok2 || wantA != gotA {
			t.Fatalf("%v: aggregate diverges after restore:\nbefore: %+v\nafter:  %+v", k, wantA, gotA)
		}
		if !reflect.DeepEqual(before.LastK(k, 500, nil), after.LastK(k, 500, nil)) {
			t.Fatalf("%v: LastK diverges after restore", k)
		}
	}
	// Occupancy carried over exactly.
	if b, a := before.Stats(), after.Stats(); b != a {
		t.Fatalf("stats diverge:\nbefore: %+v\nafter:  %+v", b, a)
	}
	// The restored store keeps working: appends land after the restored
	// history.
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldTxBytes}
	after.Append(k, 9000*int64(time.Millisecond), 1e9)
	agg, ok := after.Aggregate(k, 8500*int64(time.Millisecond), math.MaxInt64)
	if !ok || agg.Count != 1 {
		t.Fatalf("append after restore: %+v ok=%v", agg, ok)
	}
}

// TestSnapshotUncompressedStore round-trips the plain overwrite-ring
// mode (no chunks, no tiers) through the same format.
func TestSnapshotUncompressedStore(t *testing.T) {
	cfg := Config{Capacity: 512}
	before := New(cfg)
	populate(before, 2000)
	var buf bytes.Buffer
	if _, err := before.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	after := New(cfg)
	if err := after.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	k := SeriesKey{Agent: 1, Fn: 143, UE: 2, Field: FieldRxBytes}
	if !reflect.DeepEqual(before.LastK(k, 512, nil), after.LastK(k, 512, nil)) {
		t.Fatal("ring contents diverge after restore")
	}
}

// TestSnapshotHeader pins the on-disk magic and version so the format
// cannot change silently (bump snapshotVersion deliberately instead).
func TestSnapshotHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New(Config{}).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < 9 {
		t.Fatalf("snapshot only %d bytes", len(b))
	}
	if string(b[:4]) != "FXTS" {
		t.Fatalf("magic = %q", b[:4])
	}
	if b[4] != 1 {
		t.Fatalf("version = %d", b[4])
	}
}

// TestSnapshotCorruption checks every tamper mode fails closed with
// ErrSnapshotFormat and leaves the target store empty.
func TestSnapshotCorruption(t *testing.T) {
	src := New(Config{Capacity: 128, Compress: true})
	populate(src, 1000)
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	tamper := map[string][]byte{
		"bad-magic":    append([]byte("NOPE"), good[4:]...),
		"bad-version":  append(append(append([]byte{}, good[:4]...), 99), good[5:]...),
		"truncated":    good[:len(good)/2],
		"flipped-byte": flipByte(good, len(good)/2),
		"flipped-crc":  flipByte(good, len(good)-1),
		"empty":        {},
		"bad-field":    badFieldSnapshot(t),
	}
	for name, data := range tamper {
		t.Run(name, func(t *testing.T) {
			dst := New(Config{Capacity: 128, Compress: true})
			err := dst.ReadSnapshot(bytes.NewReader(data))
			if !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("err = %v, want ErrSnapshotFormat", err)
			}
			if dst.NumSeries() != 0 {
				t.Fatal("corrupt snapshot published series")
			}
		})
	}
}

// badFieldSnapshot is a one-series snapshot whose key names a Field
// outside the field set, under a valid CRC.
func badFieldSnapshot(t *testing.T) []byte {
	s := New(Config{})
	s.Append(SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldCQI}, 1, 1)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	const fieldAt = len(snapshotMagic) + 1 + 4 + 4 + 2 + 2 // magic, version, count, agent, fn, ue
	b[fieldAt] = uint8(numFields)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[len(snapshotMagic)+1:len(b)-4]))
	return b
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xff
	return out
}

// TestSnapshotLoadMissingFile: a fresh deployment has no snapshot yet;
// that is a clean start, not an error.
func TestSnapshotLoadMissingFile(t *testing.T) {
	s := New(Config{})
	if err := snapfile.Load(s, filepath.Join(t.TempDir(), "absent.snap")); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotHeadOverflowClamps loads a snapshot whose write head is
// larger than the target store's Capacity: the newest samples win.
func TestSnapshotHeadOverflowClamps(t *testing.T) {
	big := New(Config{Capacity: 1024})
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldCQI}
	for i := 0; i < 1000; i++ {
		big.Append(k, int64(i), float64(i))
	}
	var buf bytes.Buffer
	if _, err := big.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	small := New(Config{Capacity: 64})
	if err := small.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got := small.LastK(k, 1024, nil)
	if len(got) != 64 {
		t.Fatalf("clamped head has %d samples, want 64", len(got))
	}
	if got[len(got)-1].TS != 999 || got[0].TS != 999-63 {
		t.Fatalf("kept span [%d,%d], want the newest 64", got[0].TS, got[len(got)-1].TS)
	}
}

// TestSnapshotEvery drives the periodic writer: the file appears within
// an interval, and closing stop produces a final consistent snapshot.
func TestSnapshotEvery(t *testing.T) {
	s := New(Config{Capacity: 128, Compress: true})
	populate(s, 500)
	path := filepath.Join(t.TempDir(), "periodic.snap")
	stop := make(chan struct{})
	done := snapfile.Every(s, path, 10*time.Millisecond, stop, func(err error) { t.Error(err) })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never written")
		}
		time.Sleep(5 * time.Millisecond)
	}
	populate(s, 600) // more data before shutdown
	close(stop)
	<-done
	restored := New(Config{Capacity: 128, Compress: true})
	if err := snapfile.Load(restored, path); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.NumSeries(), s.NumSeries(); got != want {
		t.Fatalf("final snapshot has %d series, want %d", got, want)
	}
	// The final write happened after stop, so it includes the late data.
	k := SeriesKey{Agent: 1, Fn: 142, UE: 1, Field: FieldTxBytes}
	a, ok1 := s.Aggregate(k, 0, math.MaxInt64)
	b, ok2 := restored.Aggregate(k, 0, math.MaxInt64)
	if !ok1 || !ok2 || a != b {
		t.Fatalf("final snapshot stale:\nlive:     %+v\nrestored: %+v", a, b)
	}
}

// oneTierSnapshot is a one-series snapshot carrying a single tier (a
// 1 s tier with one bucket) under a valid CRC. A ring store keeps it as
// tier 1 and no tier 2: List and WriteSnapshot used to dereference the
// missing tier 2 and panic, with the series lock held.
func oneTierSnapshot() []byte {
	le := binary.LittleEndian
	p := le.AppendUint32(nil, 1) // series
	p = le.AppendUint32(p, 1)    // agent
	p = le.AppendUint16(p, 142)  // fn
	p = le.AppendUint16(p, 1)    // ue
	p = append(p, byte(FieldCQI))
	p = le.AppendUint32(p, 0) // head samples
	p = le.AppendUint32(p, 0) // chunks
	p = append(p, 1)          // tiers
	p = le.AppendUint64(p, uint64(tier1Width))
	p = le.AppendUint32(p, 1) // buckets
	p = le.AppendUint64(p, uint64(3*tier1Width))
	p = le.AppendUint32(p, 5)
	for _, v := range []float64{1, 9, 25} { // min, max, sum
		p = le.AppendUint64(p, math.Float64bits(v))
	}
	out := append([]byte(snapshotMagic), snapshotVersion)
	out = append(out, p...)
	return le.AppendUint32(out, crc32.ChecksumIEEE(p))
}

// FuzzSnapshotLoad feeds arbitrary bytes to the FXTS reader. The first
// byte picks the target store (bit 0: compressed, else ring) and whether
// the footer is rewritten to the payload's CRC (bit 1), so that mutated
// structure gets past the checksum; the rest is the snapshot. The seeds
// are the golden snapshots in testdata/, one series per image, in both
// store modes. Oracle: a load either succeeds or fails with
// ErrSnapshotFormat (a CRC mismatch included) and publishes nothing; it
// never panics, and allocates in proportion to the input, not to the
// counts its headers claim. A store that loaded answers queries, writes
// a snapshot that loads to the same occupancy, and keeps ingesting:
// appends seal, retire and fold the chunks it restored.
func FuzzSnapshotLoad(f *testing.F) {
	for _, gc := range goldenCases {
		data, err := os.ReadFile(filepath.Join("testdata", gc.name+".fxts"))
		if err != nil {
			f.Fatal(err)
		}
		for _, img := range splitImages(f, data) {
			for mode := byte(0); mode < 4; mode++ {
				f.Add(append([]byte{mode}, img...))
			}
		}
	}
	for mode := byte(0); mode < 2; mode++ {
		f.Add(append([]byte{mode}, oneTierSnapshot()...))
	}
	f.Add([]byte{})
	f.Add([]byte{2, 'F', 'X', 'T', 'S', 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, snap := data[0], append([]byte(nil), data[1:]...)
		if head := len(snapshotMagic) + 1; mode&2 != 0 && len(snap) >= head+4 {
			binary.LittleEndian.PutUint32(snap[len(snap)-4:], crc32.ChecksumIEEE(snap[head:len(snap)-4]))
		}
		cfg := Config{Capacity: 16, Compress: mode&1 != 0, MaxChunks: 2, Tier1Cap: 4, Tier2Cap: 2, Shards: 1}
		s := New(cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.ReadSnapshot(bytes.NewReader(snap))
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, 128*uint64(len(snap))+1<<20; grew > bound {
			t.Fatalf("a %d-byte snapshot allocated %d bytes (bound %d)", len(snap), grew, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("err = %v, want ErrSnapshotFormat", err)
			}
			if s.NumSeries() != 0 {
				t.Fatal("a failed load published series")
			}
			return
		}
		keys := s.Keys(func(SeriesKey) bool { return true })
		s.List(-1, 0)
		for _, k := range keys {
			s.Aggregate(k, math.MinInt64, math.MaxInt64)
			s.Window(k, math.MinInt64, math.MaxInt64, math.MaxInt64/64)
			s.LastK(k, 2*cfg.Capacity, nil)
		}
		var buf bytes.Buffer
		if _, err := s.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		again := New(cfg)
		if err := again.ReadSnapshot(&buf); err != nil {
			t.Fatalf("a loaded store's snapshot does not load: %v", err)
		}
		// A ring store limits restored tiers to the buckets a snapshot
		// lists, so ring storage may differ; what is held may not.
		occupancy := func(st Stats) Stats {
			st.Tier1.Capacity, st.Tier2.Capacity = 0, 0
			return st
		}
		if a, b := occupancy(s.Stats()), occupancy(again.Stats()); a != b {
			t.Fatalf("rewritten snapshot loads differently:\nfirst:  %+v\nsecond: %+v", a, b)
		}
		for _, k := range keys {
			for i := 0; i <= cfg.Capacity; i++ {
				s.Append(k, int64(i), float64(i))
			}
		}
		s.Stats()
	})
}
