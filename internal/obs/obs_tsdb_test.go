package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"flexric/internal/obs"
	"flexric/internal/sm"
	"flexric/internal/tsdb"
)

// TestFnAliasesMatchSM pins the curl-friendly fn aliases to the sm
// package's real RAN-function IDs (tsdb keeps a local table to stay
// decoupled from sm).
func TestFnAliasesMatchSM(t *testing.T) {
	for name, want := range map[string]uint16{
		"mac":  sm.IDMACStats,
		"rlc":  sm.IDRLCStats,
		"pdcp": sm.IDPDCPStats,
	} {
		got, ok := tsdb.FnAliases[name]
		if !ok || got != want {
			t.Fatalf("alias %q = %d (ok=%v), want %d", name, got, ok, want)
		}
	}
	if _, ok := tsdb.FnAliases["bogus"]; ok {
		t.Fatal("bogus alias resolved")
	}
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestTSDBEndpoints drives /tsdb/series and /tsdb/query over a store
// populated with a known series.
func TestTSDBEndpoints(t *testing.T) {
	st := tsdb.New(tsdb.Config{Capacity: 4096})
	k := tsdb.SeriesKey{Agent: 1, Fn: sm.IDMACStats, UE: 7, Field: tsdb.FieldThroughputBps}
	// 1000 samples, one per ms, value = index, ending now.
	now := time.Now().UnixNano()
	start := now - 1000*int64(time.Millisecond)
	for i := 0; i < 1000; i++ {
		st.Append(k, start+int64(i)*int64(time.Millisecond), float64(i))
	}
	s, err := obs.NewServer("127.0.0.1:0", obs.WithTSDB(st))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	// /tsdb/series inventory, with and without filters.
	var infos []tsdb.SeriesInfo
	if code := getJSON(t, base+"/tsdb/series", &infos); code != http.StatusOK {
		t.Fatalf("series: %d", code)
	}
	if len(infos) != 1 || infos[0].Field != "throughput_bps" || infos[0].Count != 1000 {
		t.Fatalf("series = %+v", infos)
	}
	infos = nil
	if code := getJSON(t, base+"/tsdb/series?agent=1&fn=mac", &infos); code != http.StatusOK || len(infos) != 1 {
		t.Fatalf("filtered series = %+v", infos)
	}
	infos = nil
	if code := getJSON(t, base+"/tsdb/series?agent=9", &infos); code != http.StatusOK || len(infos) != 0 {
		t.Fatalf("empty filter = %+v", infos)
	}

	type queryResp struct {
		Field   string        `json:"field"`
		Samples []tsdb.Sample `json:"samples"`
		Agg     *tsdb.Agg     `json:"agg"`
		Buckets []tsdb.Bucket `json:"buckets"`
	}
	q := base + "/tsdb/query?agent=1&fn=mac&ue=7&field=throughput_bps"

	// last=K mode.
	var qr queryResp
	if code := getJSON(t, q+"&last=5", &qr); code != http.StatusOK {
		t.Fatalf("last: %d", code)
	}
	if len(qr.Samples) != 5 || qr.Samples[4].V != 999 {
		t.Fatalf("last samples = %+v", qr.Samples)
	}

	// window_ms aggregate mode (the fn alias resolves to 142).
	qr = queryResp{}
	if code := getJSON(t, q+"&window_ms=5000", &qr); code != http.StatusOK {
		t.Fatalf("window: %d", code)
	}
	if qr.Agg == nil || qr.Agg.Count != 1000 || qr.Agg.Max != 999 {
		t.Fatalf("window agg = %+v", qr.Agg)
	}
	if qr.Agg.P99 < qr.Agg.P50 {
		t.Fatalf("percentiles = %+v", qr.Agg)
	}

	// Bucketed absolute-range mode: 1000 ms in 100 ms steps.
	qr = queryResp{}
	u := fmt.Sprintf("%s&from=%d&to=%d&step_ms=100", q, start, start+1000*int64(time.Millisecond))
	if code := getJSON(t, u, &qr); code != http.StatusOK {
		t.Fatalf("buckets: %d", code)
	}
	if len(qr.Buckets) != 10 {
		t.Fatalf("%d buckets", len(qr.Buckets))
	}
	for i, b := range qr.Buckets {
		if b.Agg.Count != 100 {
			t.Fatalf("bucket %d count %d", i, b.Agg.Count)
		}
	}

	// Error paths.
	for want, url := range map[int]string{
		http.StatusBadRequest: q, // no mode selected
		http.StatusNotFound:   base + "/tsdb/query?agent=9&fn=mac&ue=7&field=cqi&last=5",
	} {
		var v any
		if code := getJSON(t, url, &v); code != want {
			t.Fatalf("%s: %d, want %d", url, code, want)
		}
	}
	for _, url := range []string{
		base + "/tsdb/query?fn=mac&ue=7&field=cqi&last=5", // missing agent
		q + "&last=0",                  // bad last
		q + "&window_ms=-1",            // bad window
		q + "&window_ms=100&step_ms=0", // bad step
		q + "&from=5&to=1",             // inverted range
		base + "/tsdb/query?agent=1&fn=nope&ue=7&field=cqi&last=1", // bad fn
		base + "/tsdb/series?agent=-2",                             // bad agent filter
	} {
		var v any
		if code := getJSON(t, url, &v); code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", url, code)
		}
	}
}

// TestTSDBStatsEndpoint drives /tsdb/stats over a compressed store:
// the occupancy summary must report sealed chunks and a compression
// ratio, and track the store's own Stats() exactly.
func TestTSDBStatsEndpoint(t *testing.T) {
	st := tsdb.New(tsdb.Config{Capacity: 128, Compress: true})
	k := tsdb.SeriesKey{Agent: 1, Fn: sm.IDMACStats, UE: 1, Field: tsdb.FieldTxBytes}
	v := 0.0
	for i := 0; i < 1000; i++ {
		v += 1500
		st.Append(k, int64(i)*int64(time.Millisecond), v)
	}
	st.AppendRaw(1, sm.IDMACStats, 0, []byte("payload"))
	s, err := obs.NewServer("127.0.0.1:0", obs.WithTSDB(st))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var got tsdb.Stats
	if code := getJSON(t, "http://"+s.Addr()+"/tsdb/stats", &got); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if got != st.Stats() {
		t.Fatalf("endpoint stats %+v != store stats %+v", got, st.Stats())
	}
	if got.Series != 1 || got.Chunks == 0 || got.ChunkSamples == 0 {
		t.Fatalf("occupancy: %+v", got)
	}
	if got.BytesPerSample <= 0 || got.BytesPerSample > 2 {
		t.Fatalf("bytes/sample = %v, want (0, 2] on a counter series", got.BytesPerSample)
	}
	if got.RawPayloads != 1 || got.RawPayloadBytes != len("payload") {
		t.Fatalf("raw archive: %+v", got)
	}
}

// TestTSDBQueryNonFinite: a /tsdb/query whose answer holds +Inf, which
// JSON cannot carry, answers 500 naming the encoder's error instead of
// 200 with an empty body.
func TestTSDBQueryNonFinite(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	k := tsdb.SeriesKey{Agent: 1, Fn: sm.IDMACStats, UE: 7, Field: tsdb.FieldCQI}
	st.Append(k, 1, 3)
	st.Append(k, 2, math.Inf(1))
	s, err := obs.NewServer("127.0.0.1:0", obs.WithTSDB(st))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, q := range []string{"last=2", "from=0&to=10", "from=0&to=10&step_ms=1"} {
		resp, err := http.Get("http://" + s.Addr() + "/tsdb/query?agent=1&fn=mac&ue=7&field=cqi&" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "unsupported value") {
			t.Errorf("%s: %s %q, want 500 naming the unsupported value", q, resp.Status, body)
		}
	}
}
