package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flexric/internal/obs"
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
	keys := st.Keys(func(tsdb.SeriesKey) bool { return true })
	env := partialEnvelope{Series: len(keys)}
	if windowed {
		env.Buckets = legGrid()
		st.FoldPartialWindow(keys, env.Buckets)
	} else {
		st.FoldPartial(keys, 0, 299, &env.Agg)
	}
	b, err := json.Marshal(env)
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
// returns the merged envelope and how many legs were accepted.
func mergeLegs(grid []tsdb.PartialBucket, legs ...[]byte) (partialEnvelope, int) {
	merged := partialEnvelope{Buckets: append([]tsdb.PartialBucket(nil), grid...)}
	ok := 0
	for _, body := range legs {
		env, err := readLeg(bytes.NewReader(body), grid)
		if err != nil {
			continue
		}
		ok++
		merged.merge(&env)
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
		if _, err := readLeg(bytes.NewReader(hostileLeg(lo)), grid); !errors.Is(err, tsdb.ErrBadPartial) {
			t.Fatalf("leg with lo=%d: %v, want ErrBadPartial", lo, err)
		}
	}
	good := goodLeg(t, true)
	merged, ok := mergeLegs(grid, hostileLeg(-1e9), good, hostileLeg(1e9), good)
	if ok != 2 || merged.Series != 8 {
		t.Fatalf("accepted %d legs with %d series, want the 2 good ones with 8", ok, merged.Series)
	}
	shifted := bytes.Replace(good, []byte(`"from_ts":100`), []byte(`"from_ts":101`), 1)
	if _, err := readLeg(bytes.NewReader(shifted), grid); err == nil {
		t.Fatal("a leg on another bucket grid was accepted")
	}
	if _, err := readLeg(bytes.NewReader(good), nil); err == nil {
		t.Fatal("a windowed leg was accepted for an aggregate query")
	}
	if _, err := readLeg(bytes.NewReader(goodLeg(t, false)), nil); err != nil {
		t.Fatalf("aggregate leg rejected: %v", err)
	}
}

// TestFederatedWindowOneAgent: a windowed query for one agent returns
// the owner's buckets even when a shard holding none of that agent's
// series answers first. (The root used to adopt the first leg's bucket
// list, and an empty shard's was empty.)
func TestFederatedWindowOneAgent(t *testing.T) {
	stores := []*tsdb.Store{tsdb.New(tsdb.Config{}), tsdb.New(tsdb.Config{})}
	r := &Root{client: &http.Client{Timeout: 5 * time.Second}, shards: map[string]*shardState{}}
	var addrs []string
	for i, st := range stores {
		s, err := obs.NewServer("127.0.0.1:0", obs.WithTSDB(st))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		addrs = append(addrs, "http://"+s.Addr())
		r.shards[fmt.Sprint(i)] = &shardState{alive: true, obs: addrs[i]}
	}
	// The root merges legs in address order: give the agent's series to
	// the shard that sorts last.
	owner := stores[0]
	if addrs[0] < addrs[1] {
		owner = stores[1]
	}
	for ts := int64(0); ts < 1e9; ts += 1e7 {
		owner.Append(tsdb.SeriesKey{Agent: 5, Fn: 142, UE: 1, Field: tsdb.FieldCQI}, ts, 7)
	}
	got, err := r.FederatedWindow("5", "mac", "all", "cqi", 0, 1e9, 1e8)
	if err != nil || len(got) != 10 {
		t.Fatalf("%d buckets, err %v; want 10", len(got), err)
	}
	for i, b := range got {
		if b.Agg.Count != 10 || b.Agg.Mean != 7 {
			t.Fatalf("bucket %d: %+v", i, b.Agg)
		}
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
// or a bad agent, fn or field, with 400 before fanning out.
func TestQueryHandlerWideWindows(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	k := tsdb.SeriesKey{Agent: 5, Fn: 142, UE: 1, Field: tsdb.FieldCQI}
	st.Append(k, -8e18, 3)
	st.Append(k, 8e18, 5)
	s, err := obs.NewServer("127.0.0.1:0", obs.WithTSDB(st))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := &Root{client: &http.Client{Timeout: 5 * time.Second}, shards: map[string]*shardState{
		"0": {alive: true, obs: "http://" + s.Addr()},
	}}
	const sel = "/tsdb/query?agent=5&fn=mac&ue=1&field=cqi&"
	const wide = "from=-9000000000000000000&to=9000000000000000000"
	for _, c := range []struct {
		url     string
		code    int
		buckets int
	}{
		{sel + wide + "&step_ms=10000000000", 200, 1800},
		{sel + wide + "&step_ms=1000", 200, 4096},
		{sel + wide + "&step_ms=18446744073710", 400, 0},
		{sel + wide + "&step_ms=9223372036855", 400, 0},
		{sel + "window_ms=9223372036855", 400, 0},
		{sel + "window_ms=18446744073710&step_ms=1000", 400, 0},
		{"/tsdb/query?agent=5&fn=mac&ue=1&field=bogus&" + wide + "&step_ms=1000", 400, 0},
		{"/tsdb/query?agent=-1&fn=mac&ue=1&field=cqi&" + wide + "&step_ms=1000", 400, 0},
		{"/tsdb/query?agent=5&fn=bogus&ue=1&field=cqi&" + wide + "&step_ms=1000", 400, 0},
	} {
		rec := httptest.NewRecorder()
		r.QueryHandler()(rec, httptest.NewRequest("GET", c.url, nil))
		if rec.Code != c.code {
			t.Errorf("GET %s: %d %s, want %d", c.url, rec.Code, rec.Body, c.code)
			continue
		}
		if c.code != 200 {
			continue
		}
		var resp fedQueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", c.url, err)
		}
		if len(resp.Buckets) != c.buckets || resp.Shards != 1 {
			t.Errorf("GET %s: %d buckets from %d shards, want %d from 1", c.url, len(resp.Buckets), resp.Shards, c.buckets)
		}
		if c.buckets == 1800 && (resp.Buckets[100].Agg.Count != 1 || resp.Buckets[1700].Agg.Count != 1) {
			t.Errorf("GET %s: samples at ±8e18 not in buckets 100 and 1700", c.url)
		}
	}
}

// spaces is an endless run of JSON whitespace, counting what was read.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	s.n += len(p)
	return len(p), nil
}

// A shard answer is read up to maxLegBytes and no further: an endless
// one is dropped like a failed leg instead of growing the root's buffer.
func TestLegBodyBounded(t *testing.T) {
	endless := &spaces{}
	if _, err := readLeg(endless, legGrid()); err == nil {
		t.Fatal("an endless leg was accepted")
	}
	if endless.n > maxLegBytes+64<<10 {
		t.Fatalf("read %d bytes of an endless leg, bound is %d", endless.n, maxLegBytes)
	}
	if _, err := readLeg(io.MultiReader(bytes.NewReader(bytes.Repeat([]byte(" "), 1<<20)), bytes.NewReader(goodLeg(t, true))), legGrid()); err != nil {
		t.Fatalf("a padded leg under the bound was rejected: %v", err)
	}
}
