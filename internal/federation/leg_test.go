package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/resilience"
	"flexric/internal/sm"
	"flexric/internal/telemetry"
	"flexric/internal/tsdb"
)

// legGrid is the bucket grid the test legs answer: [0, 300) in three
// 100 ns buckets.
func legGrid() []tsdb.PartialBucket { return tsdb.NewPartialWindow(0, 300, 100) }

// goodPartial is the leg a real shard would answer: four series folded
// into the grid (windowed) or into one aggregate.
func goodPartial(windowed bool) tsdb.PartialLeg {
	st := tsdb.New(tsdb.Config{})
	for ue := uint16(0); ue < 4; ue++ {
		k := tsdb.SeriesKey{Agent: 1, Fn: 142, UE: ue, Field: tsdb.FieldCQI}
		for ts := int64(0); ts < 300; ts += 7 {
			st.Append(k, ts, float64(ts%13)-4)
		}
	}
	q := tsdb.Query{Agent: -1, UE: -1, Fn: 142, Field: tsdb.FieldCQI, From: 0, To: 299}
	if windowed {
		q.To, q.StepNS = 300, 100
	}
	return st.Partial(q)
}

// encodeLeg is a leg's body on the wire.
func encodeLeg(l tsdb.PartialLeg) []byte { return tsdb.AppendLeg(nil, &l) }

// goodLeg is goodPartial's body.
func goodLeg(windowed bool) []byte { return encodeLeg(goodPartial(windowed)) }

// hostileLeg claims one raw sample in a histogram run starting at lo.
func hostileLeg(lo int64) []byte {
	one := tsdb.PartialAgg{Count: 1, RawN: 1}
	pos, neg := one, one
	pos.Pos = tsdb.Hist{Lo: lo, N: []int64{1}}
	neg.Neg = tsdb.Hist{Lo: lo, N: []int64{1}}
	buckets := legGrid()
	buckets[0].Agg = neg
	return encodeLeg(tsdb.PartialLeg{Series: 1, Agg: pos, Buckets: buckets})
}

// maxRun bounds any histogram run a checked merge can produce: the
// finite bucket range is under 19 000 buckets wide.
const maxRun = 1 << 15

// mergeLegs is the root's decode-check-merge over raw leg bodies. It
// returns the merged leg and how many legs were accepted.
func mergeLegs(grid []tsdb.PartialBucket, legs ...[]byte) (tsdb.PartialLeg, int) {
	merged := tsdb.PartialLeg{Buckets: append([]tsdb.PartialBucket(nil), grid...)}
	ok := 0
	for _, body := range legs {
		leg, err := readLeg(body, grid)
		if err != nil {
			continue
		}
		ok++
		merged.Merge(&leg)
	}
	return merged, ok
}

// TestHostileLegsRejected: legs whose histogram runs start a billion
// buckets below and above the finite range are dropped like a failed
// leg — merging them would have grown one run across 2e9 slots — while
// real legs, and a bucket grid other than the one asked for, are told
// apart.
func TestHostileLegsRejected(t *testing.T) {
	grid := legGrid()
	for _, lo := range []int64{-1e9, 1e9} {
		if _, err := readLeg(hostileLeg(lo), grid); !errors.Is(err, tsdb.ErrBadPartial) {
			t.Fatalf("leg with lo=%d: %v, want ErrBadPartial", lo, err)
		}
	}
	good := goodLeg(true)
	merged, ok := mergeLegs(grid, hostileLeg(-1e9), good, hostileLeg(1e9), good)
	if ok != 2 || merged.Series != 8 {
		t.Fatalf("accepted %d legs with %d series, want the 2 good ones with 8", ok, merged.Series)
	}
	shifted := goodPartial(true)
	shifted.Buckets[1].FromTS = 101
	if _, err := readLeg(encodeLeg(shifted), grid); err == nil {
		t.Fatal("a leg on another bucket grid was accepted")
	}
	if _, err := readLeg(good, nil); err == nil {
		t.Fatal("a windowed leg was accepted for an aggregate query")
	}
	if _, err := readLeg(goodLeg(false), nil); err != nil {
		t.Fatalf("aggregate leg rejected: %v", err)
	}
}

// startFleet starts a root and n shards (s0, s1, …) joined over E2,
// with no agents, and returns once the root lists every shard alive.
// The shards' stores are the test's to fill.
func startFleet(t *testing.T, n int) (*Root, []*Shard, *Ring) {
	t.Helper()
	return startFleetWith(t, n, nil, "127.0.0.1:0")
}

// startFleetWith is startFleet with the root's resilience config and
// the shards' obs address chosen by the test.
func startFleetWith(t *testing.T, n int, rootRes *resilience.Config, obsAddr string) (*Root, []*Shard, *Ring) {
	t.Helper()
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("s%d", i)
	}
	ring := NewRing(DefaultReplicas, members...)
	root, err := NewRoot(RootConfig{Ring: ring, E2Scheme: e2ap.SchemeFB, ListenAddr: "127.0.0.1:0", CoordPeriodMS: 20, Resilience: rootRes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	shards := make([]*Shard, n)
	for i, name := range members {
		sh, err := NewShard(ShardConfig{
			Name: name, Index: i, E2Scheme: e2ap.SchemeFB, SMScheme: sm.SchemeFB,
			SouthAddr: "127.0.0.1:0", ObsAddr: obsAddr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		if err := sh.ConnectRoot(root.Addr()); err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
	}
	waitUntil(t, "every shard alive at the root", 5*time.Second, func() bool { return aliveShards(root) == n })
	return root, shards, ring
}

// aliveShards counts the shards the root's registry holds alive.
func aliveShards(r *Root) int {
	n := 0
	for _, sh := range r.Snapshot().(FedSnapshot).Shards {
		if sh.Alive {
			n++
		}
	}
	return n
}

// fedQuery runs one federated /tsdb/query through the root's handler.
func fedQuery(t *testing.T, r *Root, u string) (int, fedQueryResponse, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	r.QueryHandler()(rec, httptest.NewRequest("GET", u, nil))
	var resp fedQueryResponse
	if rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
	}
	return rec.Code, resp, rec.Body.String()
}

// TestFederatedWindowOneAgent: a windowed query for one agent returns
// the owner's buckets even when shards holding none of that agent's
// series answer first (the root once adopted the first leg's bucket
// list, and an empty shard's was empty), every leg travels over
// fed-coord — no shard serves a /tsdb/partial request — and with one of
// three shards closed the query still answers from the other two.
func TestFederatedWindowOneAgent(t *testing.T) {
	root, shards, _ := startFleet(t, 3)
	// The root merges legs in shard-name order: give the agent's series
	// to the shard that sorts last.
	owner := shards[len(shards)-1]
	for ts := int64(0); ts < 1e9; ts += 1e7 {
		owner.DB().Append(tsdb.SeriesKey{Agent: 5, Fn: 142, UE: 1, Field: tsdb.FieldCQI}, ts, 7)
	}
	partials := telemetry.NewCounter("obs.http.requests.tsdb_partial")
	const u = "/tsdb/query?agent=5&fn=mac&ue=all&field=cqi&from=0&to=1000000000&step_ms=100"
	for _, c := range []struct {
		name   string
		kill   *Shard
		shards int
	}{
		{"one wire", nil, 3},
		{"dead shard", shards[0], 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The telemetry registry is process-wide: this one counter
			// counts the /tsdb/partial requests of every shard.
			before := partials.Load()
			if c.kill != nil {
				if err := c.kill.Close(); err != nil {
					t.Fatal(err)
				}
			}
			code, resp, body := fedQuery(t, root, u)
			if code != 200 || resp.Shards != c.shards || resp.Series != 1 || len(resp.Buckets) != 10 {
				t.Fatalf("%d, %d shards, %d series, %d buckets (%s); want 200, %d shards, 1 series, 10 buckets",
					code, resp.Shards, resp.Series, len(resp.Buckets), body, c.shards)
			}
			got, err := root.FederatedWindow("5", "mac", "all", "cqi", 0, 1e9, 1e8)
			if err != nil || !reflect.DeepEqual(got, resp.Buckets) {
				t.Fatalf("FederatedWindow: %v, err %v; the handler answered %v", got, err, resp.Buckets)
			}
			for i, b := range got {
				if b.Agg.Count != 10 || b.Agg.Mean != 7 {
					t.Fatalf("bucket %d: %+v", i, b.Agg)
				}
			}
			if n := partials.Load() - before; n != 0 {
				t.Fatalf("the shards served %d /tsdb/partial requests; the legs must ride fed-coord", n)
			}
		})
	}
}

// FuzzPartialLeg feeds the root's decode-check-merge two arbitrary
// shard answers. Whatever the bytes, it must not panic, and what it
// accepts must merge into histogram runs no wider than the finite
// bucket range.
func FuzzPartialLeg(f *testing.F) {
	good, goodAgg := goodLeg(true), goodLeg(false)
	f.Add(good, good, true)
	f.Add(goodAgg, goodAgg, false)
	f.Add(hostileLeg(-1e9), hostileLeg(1e9), true)
	f.Add(encodeLeg(tsdb.PartialLeg{Series: -1}), encodeLeg(tsdb.PartialLeg{Agg: tsdb.PartialAgg{Count: 1, RawN: 1, Zeros: 1}}), false)
	f.Add(encodeLeg(tsdb.PartialLeg{Agg: tsdb.PartialAgg{Count: 3, RawN: 3,
		Pos: tsdb.Hist{Lo: -9205, N: []int64{1}}, Neg: tsdb.Hist{Lo: 9222, N: []int64{2}}}}), goodAgg[:1], false)
	f.Fuzz(func(t *testing.T, a, b []byte, windowed bool) {
		var grid []tsdb.PartialBucket
		if windowed {
			grid = legGrid()
		}
		merged, _ := mergeLegs(grid, a, b)
		parts := []*tsdb.PartialAgg{&merged.Agg}
		for i := range merged.Buckets {
			parts = append(parts, &merged.Buckets[i].Agg)
		}
		for _, p := range parts {
			if len(p.Pos.N) > maxRun || len(p.Neg.N) > maxRun {
				t.Fatalf("merged run of %d/%d buckets", len(p.Pos.N), len(p.Neg.N))
			}
			p.Finish()
		}
	})
}

// TestQueryHandlerWideWindows: the federated /tsdb/query answers a
// from/to span wider than MaxInt64 nanoseconds with the shards' capped
// grid, and rejects a step_ms or window_ms whose nanoseconds overflow,
// or a bad agent, fn or field, with 400 before fanning out. last=K
// answers the owner shard's own /tsdb/query samples, 404 for a series
// without samples and 400 for agent=all.
func TestQueryHandlerWideWindows(t *testing.T) {
	root, shards, ring := startFleet(t, 3)
	var owner *Shard
	for _, sh := range shards {
		if sh.Name() == ring.Owner(5) {
			owner = sh
		}
	}
	k := tsdb.SeriesKey{Agent: 5, Fn: 142, UE: 1, Field: tsdb.FieldCQI}
	owner.DB().Append(k, -8e18, 3)
	owner.DB().Append(k, 8e18, 5)
	const sel = "/tsdb/query?agent=5&fn=mac&ue=1&field=cqi&"
	const wide = "from=-9000000000000000000&to=9000000000000000000"
	for _, c := range []struct {
		url     string
		code    int
		buckets int
		samples int
	}{
		{sel + wide + "&step_ms=10000000000", 200, 1800, 0},
		{sel + wide + "&step_ms=1000", 200, 4096, 0},
		{sel + wide + "&step_ms=18446744073710", 400, 0, 0},
		{sel + wide + "&step_ms=9223372036855", 400, 0, 0},
		{sel + "window_ms=9223372036855", 400, 0, 0},
		{sel + "window_ms=18446744073710&step_ms=1000", 400, 0, 0},
		{"/tsdb/query?agent=5&fn=mac&ue=1&field=bogus&" + wide + "&step_ms=1000", 400, 0, 0},
		{"/tsdb/query?agent=-1&fn=mac&ue=1&field=cqi&" + wide + "&step_ms=1000", 400, 0, 0},
		{"/tsdb/query?agent=5&fn=bogus&ue=1&field=cqi&" + wide + "&step_ms=1000", 400, 0, 0},
		{sel + "last=3", 200, 0, 2},
		{"/tsdb/query?agent=5&fn=mac&ue=2&field=cqi&last=3", 404, 0, 0},
		{"/tsdb/query?agent=all&fn=mac&ue=1&field=cqi&last=3", 400, 0, 0},
	} {
		code, resp, body := fedQuery(t, root, c.url)
		if code != c.code {
			t.Errorf("GET %s: %d %s, want %d", c.url, code, body, c.code)
			continue
		}
		if c.code != 200 {
			continue
		}
		if c.samples > 0 {
			want := shardSamples(t, owner, c.url)
			if resp.Shards != 1 || len(resp.Samples) != c.samples || !reflect.DeepEqual(resp.Samples, want) || resp.Key == nil || *resp.Key != k {
				t.Errorf("GET %s: key %v, samples %v from %d shards; the owner's /tsdb/query has %v", c.url, resp.Key, resp.Samples, resp.Shards, want)
			}
			continue
		}
		if len(resp.Buckets) != c.buckets || resp.Shards != len(shards) {
			t.Errorf("GET %s: %d buckets from %d shards, want %d from %d", c.url, len(resp.Buckets), resp.Shards, c.buckets, len(shards))
		}
		if c.buckets == 1800 && (resp.Buckets[100].Agg.Count != 1 || resp.Buckets[1700].Agg.Count != 1) {
			t.Errorf("GET %s: samples at ±8e18 not in buckets 100 and 1700", c.url)
		}
	}
}

// shardSamples asks a shard's own obs server /tsdb/query for the
// samples of the query path u.
func shardSamples(t *testing.T, sh *Shard, u string) []tsdb.Sample {
	t.Helper()
	resp, err := http.Get("http://" + sh.ObsAddr() + u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Samples []tsdb.Sample `json:"samples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET %s on the owner: %s, %v", u, resp.Status, err)
	}
	return body.Samples
}

// A shard answer longer than maxLegBytes is dropped like a failed leg,
// before it is decoded; a leg of megabytes under the bound is read,
// and a body with bytes after its leg or its samples is not.
func TestLegBodyBounded(t *testing.T) {
	over := append(goodLeg(true), make([]byte, maxLegBytes)...)
	if _, err := readLeg(over, legGrid()); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("a leg over the bound: %v, want the bound's error", err)
	}
	samples := tsdb.AppendSamples(nil, []tsdb.Sample{{TS: 1, V: 2}})
	if _, err := readSamples(append(samples, make([]byte, maxLegBytes)...), 1); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("samples over the bound: %v, want the bound's error", err)
	}
	// 4096 buckets, each holding a run of 300 histogram buckets.
	grid := tsdb.NewPartialWindow(0, 4096, 1)
	wide := tsdb.PartialLeg{Series: 1, Buckets: tsdb.NewPartialWindow(0, 4096, 1)}
	for i := range wide.Buckets {
		n := make([]int64, 300)
		for j := range n {
			n[j] = 1
		}
		wide.Buckets[i].Agg = tsdb.PartialAgg{Count: 300, RawN: 300, Pos: tsdb.Hist{N: n}}
	}
	body := encodeLeg(wide)
	if len(body) < 1<<20 || len(body) > maxLegBytes {
		t.Fatalf("wide leg of %d bytes, want megabytes under %d", len(body), maxLegBytes)
	}
	if _, err := readLeg(body, grid); err != nil {
		t.Fatalf("a leg of %d bytes under the bound was rejected: %v", len(body), err)
	}
	if _, err := readLeg(append(goodLeg(true), 0), legGrid()); err == nil {
		t.Fatal("a leg with a trailing byte was accepted")
	}
	if _, err := readSamples(append(samples, 0), 1); err == nil {
		t.Fatal("samples with a trailing byte were accepted")
	}
}

// FuzzCoordControl feeds the shard's fed-coord control handler arbitrary
// header and payload bytes over a small store. Whatever the bytes, it
// must not panic, and it answers with an error or with what the root
// accepts: for a leg, a body readLeg takes for the grid the query names
// or, for last=K, at most K samples; for a takeover, nothing.
func FuzzCoordControl(f *testing.F) {
	st := tsdb.New(tsdb.Config{})
	for ue := uint16(0); ue < 4; ue++ {
		k := tsdb.SeriesKey{Agent: 1, Fn: 142, UE: ue, Field: tsdb.FieldCQI}
		for ms := int64(0); ms < 300; ms += 7 {
			st.Append(k, ms*int64(time.Millisecond), float64(ms%13)-4)
		}
	}
	// No snapshot exists in the directory, so a takeover restores
	// nothing and never reaches the shard's (absent) servers.
	fn := &coordFn{s: &Shard{cfg: ShardConfig{Name: "s0", SnapshotDir: f.TempDir()}, db: st}}
	f.Add([]byte(legHeader), []byte("agent=all&fn=mac&ue=all&field=cqi&from=0&to=300000000&step_ms=100"))
	f.Add([]byte(legHeader), []byte("agent=1&fn=142&ue=all&field=cqi&from=0&to=299999999"))
	f.Add([]byte(legHeader), []byte("agent=1&fn=mac&ue=2&field=cqi&last=5"))
	f.Add([]byte(nil), EncodeTakeover(&Takeover{From: "s1", Agents: []uint64{1, 2}}))
	f.Fuzz(func(t *testing.T, header, payload []byte) {
		out, err := fn.OnControl(0, &e2ap.ControlRequest{RANFunctionID: IDFedCoord, Header: header, Payload: payload})
		if err != nil {
			return
		}
		if string(header) != legHeader {
			if len(out) != 0 {
				t.Fatalf("a takeover answered %d bytes", len(out))
			}
			return
		}
		v, err := url.ParseQuery(string(payload))
		if err != nil {
			t.Fatalf("leg %q answered, but its query does not parse: %v", payload, err)
		}
		q, err := tsdb.ParseQuery(v, tsdb.FormLast|tsdb.FormRange|tsdb.FormAll)
		if err != nil {
			t.Fatalf("leg %q answered, but its query does not parse: %v", payload, err)
		}
		if q.Last > 0 {
			if _, err := readSamples(out, q.Last); err != nil {
				t.Fatalf("last=%d leg %q: the root rejects the answer: %v", q.Last, payload, err)
			}
			return
		}
		if _, err := readLeg(out, tsdb.NewPartialWindow(q.From, q.To, q.StepNS)); err != nil {
			t.Fatalf("leg %q: the root rejects the answer: %v", payload, err)
		}
	})
}

// TestNonFiniteLeg: a shard whose window holds +Inf, -Inf and NaN
// samples answers its leg and the root merges it, so no shard drops
// out of the answer; the federated /tsdb/query whose buckets then hold
// +Inf answers 500, not an empty 200.
func TestNonFiniteLeg(t *testing.T) {
	root, shards, _ := startFleet(t, 3)
	db := shards[0].DB()
	k := tsdb.SeriesKey{Agent: 5, Fn: 142, UE: 1, Field: tsdb.FieldCQI}
	db.Append(k, 0, 1)
	db.Append(k, 1e8, math.Inf(1))
	k.UE = 2
	db.Append(k, 2e8, math.Inf(-1))
	db.Append(k, 3e8, math.NaN())
	leg, hit, err := root.fanOutPartial("5", "mac", "all", "cqi", 0, 1e9, 1e8)
	if err != nil || hit != 3 || leg.Series != 2 {
		t.Fatalf("%d shards, %d series, %v; want 3 shards and 2 series", hit, leg.Series, err)
	}
	for i, b := range leg.Buckets {
		want := int64(0)
		if i < 4 {
			want = 1
		}
		if b.Agg.Count != want {
			t.Fatalf("bucket %d holds %d samples, want %d", i, b.Agg.Count, want)
		}
	}
	if v := leg.Buckets[1].Agg.Max; !math.IsInf(v, 1) {
		t.Fatalf("bucket 1 max %v, want +Inf", v)
	}
	code, _, body := fedQuery(t, root, "/tsdb/query?agent=5&fn=mac&ue=1&field=cqi&from=0&to=1000000000&step_ms=100")
	if code != http.StatusInternalServerError {
		t.Fatalf("query over +Inf: %d %s, want 500", code, body)
	}
}

// TestLegTelemetry reads bytes per leg from the federation counters on
// a fixed 3-shard fleet: each query counts one leg per shard, the body
// bytes every shard answered and one latency observation per leg, and
// a leg to a closed shard counts as dropped. The root retains a lost
// shard for a minute before declaring it dead, so the closed shard is
// still in the registry when the query goes out.
func TestLegTelemetry(t *testing.T) {
	retain := &resilience.Config{KeepaliveInterval: -1, DeadAfter: -1, RetainFor: time.Minute}
	root, shards, _ := startFleetWith(t, 3, retain, "127.0.0.1:0")
	for i, sh := range shards {
		for ue := uint16(0); ue < 8; ue++ {
			k := tsdb.SeriesKey{Agent: uint32(i + 1), Fn: 142, UE: ue, Field: tsdb.FieldCQI}
			for ts := int64(0); ts < 1e9; ts += 1e7 {
				sh.DB().Append(k, ts, float64(1+(int64(ue)+ts/1e7)%15))
			}
		}
	}
	q := tsdb.Query{Agent: -1, UE: -1, Fn: 142, Field: tsdb.FieldCQI, From: 0, To: 1e9, StepNS: 1e8}
	var wantBytes uint64
	for _, sh := range shards {
		leg := sh.DB().Partial(q)
		wantBytes += uint64(len(tsdb.AppendLeg(nil, &leg)))
	}
	legs := telemetry.NewCounter("federation.legs")
	legBytes := telemetry.NewCounter("federation.leg_bytes")
	dropped := telemetry.NewCounter("federation.legs_dropped")
	lat := telemetry.NewHistogram("federation.leg_latency")
	l0, b0, d0, h0 := legs.Load(), legBytes.Load(), dropped.Load(), lat.Count()
	const queries = 4
	for range queries {
		if _, hit, err := root.fanOutPartial("all", "mac", "all", "cqi", 0, 1e9, 1e8); err != nil || hit != 3 {
			t.Fatalf("%d shards answered: %v", hit, err)
		}
	}
	n, b := legs.Load()-l0, legBytes.Load()-b0
	if n != 3*queries || b != queries*wantBytes || lat.Count()-h0 != n || dropped.Load() != d0 {
		t.Fatalf("%d legs of %d bytes, %d timed, %d dropped; want %d legs of %d bytes, each timed, none dropped",
			n, b, lat.Count()-h0, dropped.Load()-d0, 3*queries, queries*wantBytes)
	}
	t.Logf("%d bytes per leg", b/n)
	if err := shards[0].Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the root's server to lose the closed shard", 5*time.Second, func() bool { return len(root.srv.Agents()) == 2 })
	if aliveShards(root) != 3 {
		t.Fatal("the root declared the closed shard dead inside its retention window")
	}
	if _, hit, err := root.fanOutPartial("all", "mac", "all", "cqi", 0, 1e9, 1e8); err != nil || hit != 2 || dropped.Load()-d0 != 1 {
		t.Fatalf("with a shard closed: %d shards answered, %d legs dropped, %v; want 2 and 1", hit, dropped.Load()-d0, err)
	}
}

// A shard with no obs address starts no obs server: ObsAddr and the
// root's registry say so, and Close has no server to stop.
func TestShardWithoutObs(t *testing.T) {
	root, shards, _ := startFleetWith(t, 1, nil, "")
	if a := shards[0].ObsAddr(); a != "" {
		t.Fatalf("ObsAddr = %q, want empty", a)
	}
	if got := root.Snapshot().(FedSnapshot).Shards[0].Obs; got != "" {
		t.Fatalf("the root lists obs %q for a shard without one", got)
	}
	if err := shards[0].Close(); err != nil {
		t.Fatal(err)
	}
}
