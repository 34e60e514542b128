package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/sm"
	"flexric/internal/telemetry"
	"flexric/internal/tsdb"
)

// legGrid is the bucket grid the test legs answer: [0, 300) in three
// 100 ns buckets.
func legGrid() []tsdb.PartialBucket { return tsdb.NewPartialWindow(0, 300, 100) }

// goodLeg is a leg a real shard would send: four series folded into the
// grid (windowed) or into one aggregate.
func goodLeg(t testing.TB, windowed bool) []byte {
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
	b, err := json.Marshal(st.Partial(q))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// hostileLeg claims one raw sample in a histogram run starting at lo.
func hostileLeg(lo int64) []byte {
	return []byte(fmt.Sprintf(`{"series":1,"agg":{"count":1,"raw_n":1,"pos":{"lo":%d,"n":[1]}},"buckets":[`+
		`{"from_ts":0,"to_ts":100,"agg":{"count":1,"raw_n":1,"neg":{"lo":%d,"n":[1]}}},`+
		`{"from_ts":100,"to_ts":200,"agg":{}},{"from_ts":200,"to_ts":300,"agg":{}}]}`, lo, lo))
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
	good := goodLeg(t, true)
	merged, ok := mergeLegs(grid, hostileLeg(-1e9), good, hostileLeg(1e9), good)
	if ok != 2 || merged.Series != 8 {
		t.Fatalf("accepted %d legs with %d series, want the 2 good ones with 8", ok, merged.Series)
	}
	shifted := bytes.Replace(good, []byte(`"from_ts":100`), []byte(`"from_ts":101`), 1)
	if _, err := readLeg(shifted, grid); err == nil {
		t.Fatal("a leg on another bucket grid was accepted")
	}
	if _, err := readLeg(good, nil); err == nil {
		t.Fatal("a windowed leg was accepted for an aggregate query")
	}
	if _, err := readLeg(goodLeg(t, false), nil); err != nil {
		t.Fatalf("aggregate leg rejected: %v", err)
	}
}

// startFleet starts a root and n shards (s0, s1, …) joined over E2,
// with no agents, and returns once the root lists every shard alive.
// The shards' stores are the test's to fill.
func startFleet(t *testing.T, n int) (*Root, []*Shard, *Ring) {
	t.Helper()
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("s%d", i)
	}
	ring := NewRing(DefaultReplicas, members...)
	root, err := NewRoot(RootConfig{Ring: ring, E2Scheme: e2ap.SchemeFB, ListenAddr: "127.0.0.1:0", CoordPeriodMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	shards := make([]*Shard, n)
	for i, name := range members {
		sh, err := NewShard(ShardConfig{
			Name: name, Index: i, E2Scheme: e2ap.SchemeFB, SMScheme: sm.SchemeFB,
			SouthAddr: "127.0.0.1:0", ObsAddr: "127.0.0.1:0",
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

// FuzzPartialLegJSON feeds the root's decode-check-merge two arbitrary
// shard answers. Whatever the bytes, it must not panic, and what it
// accepts must merge into histogram runs no wider than the finite
// bucket range.
func FuzzPartialLegJSON(f *testing.F) {
	good, goodAgg := goodLeg(f, true), goodLeg(f, false)
	f.Add(good, good, true)
	f.Add(goodAgg, goodAgg, false)
	f.Add(hostileLeg(-1e9), hostileLeg(1e9), true)
	f.Add([]byte(`{"series":-1}`), []byte(`{"agg":{"count":1,"raw_n":1,"zeros":1}}`), false)
	f.Add([]byte(`{"agg":{"count":3,"raw_n":3,"pos":{"lo":-9205,"n":[1]},"neg":{"lo":9222,"n":[2]}}}`), []byte(`[`), false)
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
// before it is decoded; one under the bound is read whatever its
// padding.
func TestLegBodyBounded(t *testing.T) {
	if _, err := readLeg(bytes.Repeat([]byte(" "), maxLegBytes+1), legGrid()); err == nil {
		t.Fatal("a leg over the bound was accepted")
	}
	if _, err := readSamples(bytes.Repeat([]byte(" "), maxLegBytes+1), 1); err == nil {
		t.Fatal("samples over the bound were accepted")
	}
	padded := append(bytes.Repeat([]byte(" "), 1<<20), goodLeg(t, true)...)
	if _, err := readLeg(padded, legGrid()); err != nil {
		t.Fatalf("a padded leg under the bound was rejected: %v", err)
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
