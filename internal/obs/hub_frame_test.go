package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"flexric/internal/tsdb"
)

// The reference encoder: the tsdb frame as a plain struct marshaled by
// encoding/json. The hub's writer must produce the same bytes.

type samplePair [2]float64

func pair(tsNS int64, v float64) samplePair {
	return samplePair{float64(tsNS / int64(time.Millisecond)), v}
}

type seriesFrameEntry struct {
	Name    string       `json:"name"`
	Samples []samplePair `json:"samples"`
}

type tsdbFrame struct {
	Ch       string             `json:"ch"`
	Series   []seriesFrameEntry `json:"series"`
	Backfill bool               `json:"backfill,omitempty"`
	Partial  bool               `json:"partial,omitempty"`
	Dropped  bool               `json:"dropped,omitempty"`
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// refLive encodes a live frame: one entry per series name in arrival
// order, samples in arrival order, entries sorted by name. Non-finite
// samples are left out; nil means no frame.
func refLive(t testing.TB, acc []delta, dropped bool) []byte {
	frame := tsdbFrame{Ch: ChanTSDB, Dropped: dropped}
	byName := make(map[string]int)
	for _, d := range acc {
		if !finite(d.v) {
			continue
		}
		name := seriesName(d.k)
		idx, ok := byName[name]
		if !ok {
			idx = len(frame.Series)
			byName[name] = idx
			frame.Series = append(frame.Series, seriesFrameEntry{Name: name})
		}
		frame.Series[idx].Samples = append(frame.Series[idx].Samples, pair(d.ts, d.v))
	}
	if len(frame.Series) == 0 {
		return nil
	}
	sort.Slice(frame.Series, func(i, j int) bool { return frame.Series[i].Name < frame.Series[j].Name })
	return refMarshal(t, frame)
}

// refBackfill encodes a backfill frame of series with distinct names.
func refBackfill(t testing.TB, series []backfillSeries, partial bool) []byte {
	frame := tsdbFrame{Ch: ChanTSDB, Backfill: true, Partial: partial}
	for _, s := range series {
		e := seriesFrameEntry{Name: s.name}
		for _, p := range s.samples {
			if finite(p.V) {
				e.Samples = append(e.Samples, pair(p.TS, p.V))
			}
		}
		if len(e.Samples) > 0 {
			frame.Series = append(frame.Series, e)
		}
	}
	sort.Slice(frame.Series, func(i, j int) bool { return frame.Series[i].Name < frame.Series[j].Name })
	return refMarshal(t, frame)
}

func refMarshal(t testing.TB, frame tsdbFrame) []byte {
	b, err := json.Marshal(frame)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return b
}

// frameRec is one decoded fuzz record: a sample of one series.
type frameRec struct {
	k  tsdb.SeriesKey
	ts int64
	v  float64
}

// frameRecLen is agent, fn, ue and field bytes, the timestamp, the
// value bits and one spare byte.
const frameRecLen = 21

var fuzzFns = [...]uint16{142, 143, 144, 7, 9999}

// decodeFrameRecs cuts data into records of frameRecLen bytes. Keys are
// drawn from a small space (unknown fns and fields included) so that
// series collect several samples.
func decodeFrameRecs(data []byte) []frameRec {
	var recs []frameRec
	for ; len(data) >= frameRecLen && len(recs) < 64; data = data[frameRecLen:] {
		recs = append(recs, frameRec{
			k: tsdb.SeriesKey{
				Agent: uint32(data[0] % 4),
				Fn:    fuzzFns[int(data[1])%len(fuzzFns)],
				UE:    uint16(data[2] % 4),
				Field: tsdb.Field(data[3] % 16),
			},
			ts: int64(binary.LittleEndian.Uint64(data[4:])),
			v:  math.Float64frombits(binary.LittleEndian.Uint64(data[12:])),
		})
	}
	return recs
}

func encodeFrameRecs(recs []frameRec) []byte {
	var b []byte
	for _, r := range recs {
		fn := 0
		for i, f := range fuzzFns {
			if f == r.k.Fn {
				fn = i
			}
		}
		b = append(b, byte(r.k.Agent), byte(fn), byte(r.k.UE), byte(r.k.Field))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.ts))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.v))
		b = append(b, 0)
	}
	return b
}

// checkFrames writes recs as a live frame (dropped from flags bit 0)
// and as a backfill frame (partial from bit 1) and compares both with
// the reference encoder.
func checkFrames(t *testing.T, recs []frameRec, flags uint8) {
	t.Helper()
	h := &Hub{}
	acc := make([]delta, len(recs))
	for i, r := range recs {
		acc[i] = delta{k: r.k, l: h.label(r.k), ts: r.ts, v: r.v}
	}
	want := refLive(t, acc, flags&1 != 0)
	got, ok := h.writeLive(nil, append([]delta(nil), acc...), flags&1 != 0)
	if ok != (want != nil) {
		t.Fatalf("live frame sent = %v, reference %s", ok, want)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("live frame\n got %s\nwant %s", got, want)
	}

	// Backfill series are grouped by name: the reference's unstable
	// sort leaves the order of two series sharing a name unspecified.
	var series []backfillSeries
	byName := map[string]int{}
	for _, r := range recs {
		name := seriesName(r.k)
		i, ok := byName[name]
		if !ok {
			i = len(series)
			byName[name] = i
			series = append(series, backfillSeries{name: name})
		}
		series[i].samples = append(series[i].samples, tsdb.Sample{TS: r.ts, V: r.v})
	}
	want = refBackfill(t, series, flags&2 != 0)
	if got := writeBackfill(series, flags&2 != 0); !bytes.Equal(got, want) {
		t.Fatalf("backfill frame\n got %s\nwant %s", got, want)
	}
}

// edgeFloats are values whose JSON form takes a special path: zero and
// negative zero, the exponent thresholds on either side, the extremes
// and short and long mantissas.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-6, 9.99999e-7, 1e-7, -1e-7,
	1e20, 9.99999e20, 1e21, -1e21, 1e-300, 1e300, -1e300, 5e-324,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	123456789.123, 1.0 / 3, 2.5e-9, 3e-10, 4.4e-100, 7.7e100,
}

// randFrameRecs draws n finite samples of random series.
func randFrameRecs(rng *rand.Rand, n int) []frameRec {
	recs := make([]frameRec, n)
	base := time.Now().UnixNano()
	for i := range recs {
		v := edgeFloats[rng.Intn(len(edgeFloats))]
		if r := math.Float64frombits(rng.Uint64()); rng.Intn(2) == 0 && finite(r) {
			v = r
		}
		recs[i] = frameRec{
			k: tsdb.SeriesKey{
				Agent: uint32(rng.Intn(4)), Fn: fuzzFns[rng.Intn(len(fuzzFns))],
				UE: uint16(rng.Intn(4)), Field: tsdb.Field(rng.Intn(16)),
			},
			ts: base + int64(i)*int64(time.Millisecond) + rng.Int63n(1e6),
			v:  v,
		}
	}
	return recs
}

// TestTSDBFrameDifferential: on a seeded corpus of live and backfill
// frames, the writer's bytes equal encoding/json's for the same frame.
func TestTSDBFrameDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		checkFrames(t, randFrameRecs(rng, rng.Intn(200)), uint8(i%4))
	}
	// Every edge value alone in one series, timestamps around zero.
	for i, v := range edgeFloats {
		k := tsdb.SeriesKey{Fn: 142, Field: tsdb.FieldCQI}
		checkFrames(t, []frameRec{{k: k, ts: int64(i-10) * 1e6, v: v}}, 0)
	}

	// An empty backfill carries "series":null.
	if got, want := writeBackfill(nil, false), `{"ch":"tsdb","series":null,"backfill":true}`; string(got) != want {
		t.Errorf("empty backfill = %s, want %s", got, want)
	}
	if got, want := writeBackfill(nil, true), refMarshal(t, tsdbFrame{Ch: ChanTSDB, Backfill: true, Partial: true}); !bytes.Equal(got, want) {
		t.Errorf("empty partial backfill = %s, want %s", got, want)
	}
	// Every flag combination, with and without series.
	for f := 0; f < 8; f++ {
		flags := tsdbFlags{backfill: f&1 != 0, partial: f&2 != 0, dropped: f&4 != 0}
		ref := tsdbFrame{Ch: ChanTSDB, Backfill: flags.backfill, Partial: flags.partial, Dropped: flags.dropped}
		var w tsdbWriter
		w.begin(nil)
		if got, want := w.finish(flags), refMarshal(t, ref); !bytes.Equal(got, want) {
			t.Errorf("flags %+v: got %s, want %s", flags, got, want)
		}
		ref.Series = []seriesFrameEntry{{Name: "mac.0.1.cqi", Samples: []samplePair{{1, 2}}}}
		w.begin(nil)
		w.openSeries(quoteName("mac.0.1.cqi"))
		w.sample(1e6, 2)
		w.closeSeries()
		if got, want := w.finish(flags), refMarshal(t, ref); !bytes.Equal(got, want) {
			t.Errorf("flags %+v: got %s, want %s", flags, got, want)
		}
	}
}

// FuzzTSDBFrame: for any series keys, timestamps and values, the
// writer's bytes equal the reference encoder's over the finite samples.
func FuzzTSDBFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		f.Add(encodeFrameRecs(randFrameRecs(rng, 1+rng.Intn(30))), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, flags uint8) {
		checkFrames(t, decodeFrameRecs(data), flags)
	})
}

// newTickHub builds a hub whose ticker never fires, so the test drives
// every flush with h.tick(), and one client subscribed with req.
func newTickHub(t testing.TB, st *tsdb.Store, req string) (*Hub, *streamClient) {
	t.Helper()
	h := newHub(st, nil, nil, int(time.Hour/time.Millisecond))
	t.Cleanup(h.close)
	c := h.attach()
	<-c.q // hello
	c.handle([]byte(req))
	return h, c
}

// nextFrame returns the client's next queued frame, nil when none is.
func nextFrame(c *streamClient) []byte {
	select {
	case b := <-c.q:
		return b
	default:
		return nil
	}
}

func decodeFrame(t *testing.T, b []byte) tsdbFrame {
	t.Helper()
	var f tsdbFrame
	if err := json.Unmarshal(b, &f); err != nil || f.Ch != ChanTSDB {
		t.Fatalf("frame %s: err %v", b, err)
	}
	return f
}

// TestHubAccOverflow: a client given three accumulators' worth of
// deltas between two flushes keeps the newest clientAccCap of them,
// marks the frame dropped, and counts exactly what it shed.
func TestHubAccOverflow(t *testing.T) {
	base := int(time.Hour / time.Millisecond)
	h, c := newTickHub(t, tsdb.New(tsdb.Config{Capacity: 16}),
		fmt.Sprintf(`{"op":"subscribe","ch":"tsdb","glob":"*","flush_ms":%d}`, 3*base))
	k := tsdb.SeriesKey{Agent: 1, Fn: 142, UE: 2, Field: tsdb.FieldCQI}
	before := streamTel.ringDropped.Load()
	for tick := 0; tick < 3; tick++ {
		for i := 0; i < clientAccCap; i++ {
			n := tick*clientAccCap + i
			h.onAppend(k, int64(n)*int64(time.Millisecond), float64(n))
		}
		h.tick()
	}
	f := decodeFrame(t, nextFrame(c))
	if !f.Dropped || len(f.Series) != 1 {
		t.Fatalf("frame dropped=%v series=%d, want dropped and 1 series", f.Dropped, len(f.Series))
	}
	s := f.Series[0].Samples
	if len(s) != clientAccCap || s[0][1] != 2*clientAccCap || s[len(s)-1][1] != 3*clientAccCap-1 {
		t.Fatalf("samples = %d from %v to %v, want the newest %d", len(s), s[0], s[len(s)-1], clientAccCap)
	}
	if got := streamTel.ringDropped.Load() - before; got != 2*clientAccCap {
		t.Fatalf("ring_dropped rose by %d, want %d", got, 2*clientAccCap)
	}
}

// TestHubRingDropsOldest: a producer ring past its capacity keeps the
// newest items, counts what it shed in ring_dropped, and its tsdb hook
// allocates nothing.
func TestHubRingDropsOldest(t *testing.T) {
	h, _ := newTickHub(t, tsdb.New(tsdb.Config{Capacity: 16}), `{"op":"subscribe","ch":"tsdb","glob":"*"}`)
	k := tsdb.SeriesKey{Agent: 1, Fn: 142, UE: 2, Field: tsdb.FieldCQI}
	before := streamTel.ringDropped.Load()
	for i := range pendingDeltaCap + 3 {
		h.onAppend(k, int64(i), float64(i))
	}
	if got := streamTel.ringDropped.Load() - before; got != 3 {
		t.Fatalf("ring_dropped rose by %d, want 3", got)
	}
	d := h.deltas.drain(nil)
	if len(d) != pendingDeltaCap || d[0].ts != 3 || d[len(d)-1].ts != pendingDeltaCap+2 {
		t.Fatalf("drained %d deltas from ts %d to %d, want the newest %d", len(d), d[0].ts, d[len(d)-1].ts, pendingDeltaCap)
	}
	if got := h.deltas.drain(d); len(got) != 0 {
		t.Fatalf("a drained ring drains %d more", len(got))
	}
	if a := testing.AllocsPerRun(1000, func() { h.onAppend(k, 1, 1) }); a != 0 {
		t.Fatalf("onAppend allocates %v per call", a)
	}
}

// TestHubNonFinite: a NaN or an infinity is skipped and counted instead
// of blanking the frame, live and in backfill; a series left with no
// samples is omitted and a live frame left with no series is not sent.
func TestHubNonFinite(t *testing.T) {
	st := tsdb.New(tsdb.Config{Capacity: 256})
	k := tsdb.SeriesKey{Agent: 1, Fn: 142, UE: 2, Field: tsdb.FieldThroughputBps}
	nan := tsdb.SeriesKey{Agent: 1, Fn: 142, UE: 3, Field: tsdb.FieldThroughputBps}
	now := time.Now().UnixNano()
	feed := func(appendFn func(tsdb.SeriesKey, int64, float64)) {
		for i := 0; i < 100; i++ {
			appendFn(k, now-int64(100-i)*1e6, float64(i))
		}
		appendFn(k, now-300, math.NaN())
		appendFn(k, now-200, math.Inf(1))
		appendFn(nan, now-100, math.NaN())
	}
	check := func(what string, f tsdbFrame, nonfinite uint64) {
		t.Helper()
		if len(f.Series) != 1 || f.Series[0].Name != "mac.1.2.throughput_bps" || len(f.Series[0].Samples) != 100 {
			t.Fatalf("%s: series = %+v, want mac.1.2.throughput_bps with 100 samples", what, f.Series)
		}
		if nonfinite != 3 {
			t.Fatalf("%s: obs.stream.nonfinite rose by %d, want 3", what, nonfinite)
		}
	}

	h, c := newTickHub(t, st, `{"op":"subscribe","ch":"tsdb","glob":"*"}`)
	before := streamTel.nonfinite.Load()
	feed(h.onAppend)
	h.tick()
	check("live", decodeFrame(t, nextFrame(c)), streamTel.nonfinite.Load()-before)

	h.onAppend(k, now, math.Inf(-1))
	h.tick()
	if b := nextFrame(c); b != nil {
		t.Fatalf("frame of non-finite samples only was sent: %s", b)
	}

	feed(st.Append)
	before = streamTel.nonfinite.Load()
	c = h.attach()
	<-c.q // hello
	c.handle([]byte(`{"op":"subscribe","ch":"tsdb","glob":"*","window_ms":60000}`))
	f := decodeFrame(t, nextFrame(c))
	if !f.Backfill {
		t.Fatal("backfill frame not tagged backfill")
	}
	check("backfill", f, streamTel.nonfinite.Load()-before)
}

// TestHubSeriesNames: the flush loop names each series once, bounds the
// cache, and drops it on the first tick without a tsdb subscriber.
func TestHubSeriesNames(t *testing.T) {
	h, c := newTickHub(t, tsdb.New(tsdb.Config{Capacity: 16}), `{"op":"subscribe","ch":"tsdb","glob":"*"}`)
	k := tsdb.SeriesKey{Agent: 1, Fn: 142, UE: 2, Field: tsdb.FieldCQI}
	h.onAppend(k, 1e6, 1)
	h.tick()
	l := h.names[k]
	if l == nil || l.name != "mac.1.2.cqi" || string(l.quoted) != `"mac.1.2.cqi"` {
		t.Fatalf("label = %+v", l)
	}
	h.onAppend(k, 2e6, 2)
	h.tick()
	if h.names[k] != l {
		t.Fatal("series renamed on the second tick")
	}

	for i := 0; i <= maxNamedSeries; i++ {
		h.label(tsdb.SeriesKey{Agent: uint32(i), Fn: 143})
	}
	if n := len(h.names); n > maxNamedSeries || n == 0 {
		t.Fatalf("name cache holds %d series, bound %d", n, maxNamedSeries)
	}

	c.handle([]byte(`{"op":"unsubscribe","ch":"tsdb"}`))
	h.tick()
	if h.names != nil {
		t.Fatalf("name cache kept %d series with no tsdb subscriber", len(h.names))
	}
}

// tickLoad feeds one sample to each of n series and flushes, the steady
// state of a `*` client on a hub with n live series.
type tickLoad struct {
	h    *Hub
	c    *streamClient
	keys []tsdb.SeriesKey
	ts   int64
}

func newTickLoad(t testing.TB, n int) *tickLoad {
	h, c := newTickHub(t, tsdb.New(tsdb.Config{Capacity: 16}), `{"op":"subscribe","ch":"tsdb","glob":"*"}`)
	l := &tickLoad{h: h, c: c, ts: time.Now().UnixNano()}
	for i := 0; i < n; i++ {
		l.keys = append(l.keys, tsdb.SeriesKey{
			Agent: uint32(i / 512), Fn: fuzzFns[i%3], UE: uint16(i % 512 / 16), Field: tsdb.Field(i % 16),
		})
	}
	for i := 0; i < 3; i++ { // warm the names, the scratch and the frame size
		l.run()
	}
	return l
}

func (l *tickLoad) run() {
	for i, k := range l.keys {
		l.h.onAppend(k, l.ts, float64(i%97)*1.25)
	}
	l.ts += int64(time.Millisecond)
	l.h.tick()
	<-l.c.q
}

// TestHubTickAllocs: a steady-state tick allocates the same at 64 and
// at 8192 series, and no more than 4 times: the frame buffer is the one
// allocation that must happen.
func TestHubTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	allocs := map[int]float64{}
	for _, n := range []int{64, 8192} {
		l := newTickLoad(t, n)
		allocs[n] = testing.AllocsPerRun(20, l.run)
		t.Logf("%d series: %.1f allocs per tick", n, allocs[n])
	}
	if allocs[64] != allocs[8192] || allocs[8192] > 4 {
		t.Fatalf("allocs per tick: %v at 64 series, %v at 8192; want equal and <= 4", allocs[64], allocs[8192])
	}
}

// BenchmarkHubTickTSDB: one flush of 8192 series to one `*` client.
func BenchmarkHubTickTSDB(b *testing.B) {
	l := newTickLoad(b, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.run()
	}
}
