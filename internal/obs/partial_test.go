package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexric/internal/tsdb"
)

// partialStore fills a default-capacity store the way a shard's monitor
// does: one series per agent, UE and each of five MAC fields, every
// ring full (1024 samples, 41 ms apart) with the same small-integer
// value cycle, so every series brings the same histogram shape. It
// returns the store and the end of the sampled span.
func partialStore(agents, ues int) (*tsdb.Store, int64) {
	st := tsdb.New(tsdb.Config{})
	const n, period = 1024, 41 * int64(time.Millisecond)
	for a := 0; a < agents; a++ {
		for ue := 0; ue < ues; ue++ {
			for f := tsdb.FieldCQI; f <= tsdb.FieldThroughputBps; f++ {
				k := tsdb.SeriesKey{Agent: uint32(a), Fn: 142, UE: uint16(ue), Field: f}
				for i := int64(0); i < n; i++ {
					st.Append(k, i*period, float64(1+i%15))
				}
			}
		}
	}
	return st, n * period
}

// TestPartialHandlerAllocs is the allocation gate of the federation
// fan-out leg: a windowed /tsdb/partial call folds every matching series
// into one bucket list, so its allocations must not grow with the
// number of series it matches. scripts/verify.sh runs it.
func TestPartialHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	allocs := func(agents, ues int) float64 {
		st, end := partialStore(agents, ues)
		from := end - int64(2*time.Second)
		url := fmt.Sprintf("/tsdb/partial?agent=all&fn=mac&ue=all&field=cqi&from=%d&to=%d&step_ms=200", from, end)
		h := handleTSDBPartial(st)
		return testing.AllocsPerRun(20, func() {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != 200 {
				t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body)
			}
		})
	}
	small, large := allocs(2, 4), allocs(2, 64)
	t.Logf("allocs per windowed /tsdb/partial call: %.0f at 8 series, %.0f at 128 series", small, large)
	if large-small > 8 {
		t.Fatalf("allocations grow with matching series: %.0f at 8, %.0f at 128", small, large)
	}
}

// TestPartialHandlerMatchesMerge pins what the federation root and the
// benchmark oracle assume of /tsdb/partial: the handler's one folded
// answer equals merging one PartialWindow (or PartialAggregate) per
// matching series, for wildcard and exact agent/ue selections, and a
// selection matching nothing still answers the full bucket grid.
func TestPartialHandlerMatchesMerge(t *testing.T) {
	st, end := partialStore(3, 5)
	from := end - int64(2*time.Second)
	step := 200 * int64(time.Millisecond)
	for _, sel := range []struct {
		agent, ue string
		match     func(tsdb.SeriesKey) bool
	}{
		{"all", "all", func(tsdb.SeriesKey) bool { return true }},
		{"1", "all", func(k tsdb.SeriesKey) bool { return k.Agent == 1 }},
		{"all", "3", func(k tsdb.SeriesKey) bool { return k.UE == 3 }},
		{"2", "4", func(k tsdb.SeriesKey) bool { return k.Agent == 2 && k.UE == 4 }},
		{"99", "all", func(tsdb.SeriesKey) bool { return false }},
	} {
		var want tsdb.PartialLeg
		for _, info := range st.List(-1, 142) {
			if info.Key.Field != tsdb.FieldMCS || !sel.match(info.Key) {
				continue
			}
			want.Series++
			want.Buckets = tsdb.MergePartialWindows(want.Buckets, st.PartialWindow(info.Key, from, end, step))
			if p, ok := st.PartialAggregate(info.Key, from, end); ok {
				want.Agg.Merge(&p)
			}
		}
		if want.Buckets == nil {
			want.Buckets = tsdb.NewPartialWindow(from, end, step)
		}
		base := fmt.Sprintf("/tsdb/partial?agent=%s&fn=mac&ue=%s&field=mcs&from=%d&to=%d", sel.agent, sel.ue, from, end)
		var windowed, whole tsdb.PartialLeg
		for _, q := range []struct {
			url string
			v   *tsdb.PartialLeg
		}{{base + "&step_ms=200", &windowed}, {base, &whole}} {
			rec := httptest.NewRecorder()
			handleTSDBPartial(st)(rec, httptest.NewRequest("GET", q.url, nil))
			if rec.Code != 200 {
				t.Fatalf("GET %s: %d %s", q.url, rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), q.v); err != nil {
				t.Fatalf("GET %s: %v", q.url, err)
			}
		}
		wantJSON, _ := json.Marshal(want)
		var wantBack tsdb.PartialLeg
		if err := json.Unmarshal(wantJSON, &wantBack); err != nil {
			t.Fatal(err)
		}
		if windowed.Series != want.Series || !reflect.DeepEqual(windowed.Buckets, wantBack.Buckets) {
			t.Fatalf("agent=%s ue=%s windowed: handler %+v\n per-series merge %+v", sel.agent, sel.ue, windowed, wantBack)
		}
		if whole.Series != want.Series || !reflect.DeepEqual(whole.Agg, wantBack.Agg) || whole.Buckets != nil {
			t.Fatalf("agent=%s ue=%s aggregate: handler %+v\n per-series merge %+v", sel.agent, sel.ue, whole, wantBack)
		}
	}
}

// TestTSDBHandlersWideWindows: a query whose from/to span more than
// MaxInt64 nanoseconds answers a capped bucket grid instead of
// panicking, and a step_ms or window_ms whose nanoseconds overflow is a
// 400 rather than a silently wrapped step, on both /tsdb/query and
// /tsdb/partial.
func TestTSDBHandlersWideWindows(t *testing.T) {
	st := tsdb.New(tsdb.Config{})
	k := tsdb.SeriesKey{Agent: 1, Fn: 142, UE: 2, Field: tsdb.FieldCQI}
	st.Append(k, -8e18, 3)
	st.Append(k, 8e18, 5)
	const wide = "from=-9000000000000000000&to=9000000000000000000"
	for _, c := range []struct {
		url     string
		code    int
		buckets int
	}{
		{"/tsdb/query?agent=1&fn=mac&ue=2&field=cqi&" + wide + "&step_ms=1000", 200, 4096},
		{"/tsdb/query?agent=1&fn=mac&ue=2&field=cqi&" + wide + "&step_ms=10000000000", 200, 1800},
		{"/tsdb/query?agent=1&fn=mac&ue=2&field=cqi&" + wide + "&step_ms=18446744073710", 400, 0},
		{"/tsdb/query?agent=1&fn=mac&ue=2&field=cqi&" + wide + "&step_ms=9223372036855", 400, 0},
		{"/tsdb/query?agent=1&fn=mac&ue=2&field=cqi&window_ms=9223372036855", 400, 0},
		{"/tsdb/query?agent=1&fn=mac&ue=2&field=cqi&window_ms=9223372036854&step_ms=9223372036854", 200, 1},
		{"/tsdb/partial?agent=all&fn=mac&ue=all&field=cqi&" + wide + "&step_ms=1000", 200, 4096},
		{"/tsdb/partial?agent=all&fn=mac&ue=all&field=cqi&" + wide + "&step_ms=10000000000", 200, 1800},
		{"/tsdb/partial?agent=all&fn=mac&ue=all&field=cqi&" + wide + "&step_ms=18446744073710", 400, 0},
		{"/tsdb/partial?agent=all&fn=mac&ue=all&field=cqi&" + wide + "&step_ms=9223372036855", 400, 0},
	} {
		h := handleTSDBQuery(st)
		if strings.HasPrefix(c.url, "/tsdb/partial") {
			h = handleTSDBPartial(st)
		}
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", c.url, nil))
		if rec.Code != c.code {
			t.Errorf("GET %s: %d %s, want %d", c.url, rec.Code, rec.Body, c.code)
			continue
		}
		if c.code != 200 {
			continue
		}
		var resp struct {
			Buckets []struct {
				Agg struct{ Count int } `json:"agg"`
			} `json:"buckets"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", c.url, err)
		}
		if len(resp.Buckets) != c.buckets {
			t.Errorf("GET %s: %d buckets, want %d", c.url, len(resp.Buckets), c.buckets)
		}
		if c.buckets == 1800 && (resp.Buckets[100].Agg.Count != 1 || resp.Buckets[1700].Agg.Count != 1) {
			t.Errorf("GET %s: samples at ±8e18 not in buckets 100 and 1700", c.url)
		}
	}
}
