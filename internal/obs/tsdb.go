package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"flexric/internal/trace"
	"flexric/internal/tsdb"
)

// RAN-function aliases accepted wherever a numeric fn is expected, so
// curl users can say fn=mac instead of fn=142. The IDs mirror the sm
// package's registry (obs stays decoupled from it; a test cross-checks
// the values).
var fnAliases = map[string]uint16{
	"mac":  142,
	"rlc":  143,
	"pdcp": 144,
}

// FnAlias resolves a RAN-function alias for tests and tooling.
func FnAlias(name string) (uint16, bool) {
	fn, ok := fnAliases[name]
	return fn, ok
}

func parseFn(v string) (uint16, bool) {
	if fn, ok := fnAliases[v]; ok {
		return fn, true
	}
	n, err := strconv.ParseUint(v, 10, 16)
	if err != nil {
		return 0, false
	}
	return uint16(n), true
}

// handleTSDBPartial serves GET /tsdb/partial: the federation fan-out
// endpoint. It folds every matching series into one mergeable
// tsdb.PartialAgg (or, with step_ms, one list of aligned
// PartialBuckets, always the full [from, to) grid) that the root
// combines across shards. agent and ue accept "all" as wildcards (fn
// and field stay required — a cross-field merge is meaningless);
// from/to are absolute Unix-ns bounds.
//
//	GET /tsdb/partial?agent=all&fn=mac&ue=all&field=throughput_bps&from=N&to=N[&step_ms=S]
func handleTSDBPartial(st *tsdb.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := trace.StartRoot("obs.tsdb.partial")
		defer sp.End()
		q := r.URL.Query()
		agent := int64(-1)
		if v := q.Get("agent"); v != "all" {
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				http.Error(w, "bad agent parameter", http.StatusBadRequest)
				return
			}
			agent = int64(n)
		}
		fn, ok := parseFn(q.Get("fn"))
		if !ok {
			http.Error(w, "bad fn parameter", http.StatusBadRequest)
			return
		}
		ue := int64(-1)
		if v := q.Get("ue"); v != "all" {
			n, err := strconv.ParseUint(v, 10, 16)
			if err != nil {
				http.Error(w, "bad ue parameter", http.StatusBadRequest)
				return
			}
			ue = int64(n)
		}
		field, ok := tsdb.ParseField(q.Get("field"))
		if !ok {
			http.Error(w, "unknown field", http.StatusBadRequest)
			return
		}
		from, err1 := strconv.ParseInt(q.Get("from"), 10, 64)
		to, err2 := strconv.ParseInt(q.Get("to"), 10, 64)
		if err1 != nil || err2 != nil || to <= from {
			http.Error(w, "bad from/to parameters", http.StatusBadRequest)
			return
		}
		stepNS := int64(0)
		if v := q.Get("step_ms"); v != "" {
			if stepNS, ok = tsdb.ParseMS(v); !ok {
				http.Error(w, "bad step_ms parameter", http.StatusBadRequest)
				return
			}
		}

		keys := st.Keys(func(k tsdb.SeriesKey) bool {
			return k.Fn == fn && k.Field == field &&
				(agent < 0 || k.Agent == uint32(agent)) && (ue < 0 || k.UE == uint16(ue))
		})
		resp := partialResponse{Series: len(keys)}
		if stepNS > 0 {
			resp.Buckets = tsdb.NewPartialWindow(from, to, stepNS)
			st.FoldPartialWindow(keys, resp.Buckets)
		} else {
			st.FoldPartial(keys, from, to, &resp.Agg)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}
}

// partialResponse is the /tsdb/partial envelope: the merged partial of
// every matching series (Series counts them), as one aggregate or as
// aligned windows when step_ms is given.
type partialResponse struct {
	Series  int                  `json:"series"`
	Agg     tsdb.PartialAgg      `json:"agg"`
	Buckets []tsdb.PartialBucket `json:"buckets,omitempty"`
}

// handleTSDBSeries serves GET /tsdb/series?agent=N&fn=F: the live
// series inventory, optionally filtered by agent and/or RAN function.
func handleTSDBSeries(st *tsdb.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := trace.StartRoot("obs.tsdb.series")
		defer sp.End()
		agent := int64(-1)
		if v := r.URL.Query().Get("agent"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				http.Error(w, "bad agent parameter", http.StatusBadRequest)
				return
			}
			agent = n
		}
		var fn uint16
		if v := r.URL.Query().Get("fn"); v != "" {
			var ok bool
			if fn, ok = parseFn(v); !ok {
				http.Error(w, "bad fn parameter", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st.List(agent, fn))
	}
}

// handleTSDBStats serves GET /tsdb/stats: the store-wide occupancy and
// compression-efficiency summary (series/chunk counts, bytes per
// compressed sample, tier occupancy, raw-archive size).
func handleTSDBStats(st *tsdb.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := trace.StartRoot("obs.tsdb.stats")
		defer sp.End()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st.Stats())
	}
}

// queryResponse is the /tsdb/query envelope; exactly one of the result
// fields is set, matching the query mode.
type queryResponse struct {
	Key     tsdb.SeriesKey `json:"key"`
	Field   string         `json:"field"`
	Samples []tsdb.Sample  `json:"samples,omitempty"`
	Agg     *tsdb.Agg      `json:"agg,omitempty"`
	Buckets []tsdb.Bucket  `json:"buckets,omitempty"`
}

// handleTSDBQuery serves GET /tsdb/query over one series, identified by
// agent, fn (numeric or mac/rlc/pdcp alias), ue, and field. Exactly one
// query mode applies:
//
//	last=K                     newest K samples
//	window_ms=W                aggregate over the last W ms of wall time
//	window_ms=W&step_ms=S      that window as S-ms buckets
//	from=NS&to=NS[&step_ms=S]  absolute Unix-ns range, aggregate or buckets
func handleTSDBQuery(st *tsdb.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := trace.StartRoot("obs.tsdb.query")
		defer sp.End()
		q := r.URL.Query()
		agent, err := strconv.ParseUint(q.Get("agent"), 10, 32)
		if err != nil {
			http.Error(w, "bad agent parameter", http.StatusBadRequest)
			return
		}
		fn, ok := parseFn(q.Get("fn"))
		if !ok {
			http.Error(w, "bad fn parameter", http.StatusBadRequest)
			return
		}
		ue, err := strconv.ParseUint(q.Get("ue"), 10, 16)
		if err != nil {
			http.Error(w, "bad ue parameter", http.StatusBadRequest)
			return
		}
		field, ok := tsdb.ParseField(q.Get("field"))
		if !ok {
			http.Error(w, "unknown field", http.StatusBadRequest)
			return
		}
		k := tsdb.SeriesKey{Agent: uint32(agent), Fn: fn, UE: uint16(ue), Field: field}
		resp := queryResponse{Key: k, Field: field.String()}

		stepNS := int64(0)
		if v := q.Get("step_ms"); v != "" {
			if stepNS, ok = tsdb.ParseMS(v); !ok {
				http.Error(w, "bad step_ms parameter", http.StatusBadRequest)
				return
			}
		}

		switch {
		case q.Get("last") != "":
			n, err := strconv.Atoi(q.Get("last"))
			if err != nil || n <= 0 {
				http.Error(w, "bad last parameter", http.StatusBadRequest)
				return
			}
			resp.Samples = st.LastK(k, n, nil)
			if len(resp.Samples) == 0 {
				http.Error(w, "no samples", http.StatusNotFound)
				return
			}
		case q.Get("window_ms") != "":
			windowNS, ok := tsdb.ParseMS(q.Get("window_ms"))
			if !ok {
				http.Error(w, "bad window_ms parameter", http.StatusBadRequest)
				return
			}
			now := time.Now().UnixNano()
			from := now - windowNS
			if stepNS > 0 {
				resp.Buckets = st.Window(k, from, now, stepNS)
			} else {
				agg, ok := st.Aggregate(k, from, now)
				if !ok {
					http.Error(w, "no samples in window", http.StatusNotFound)
					return
				}
				resp.Agg = &agg
			}
		case q.Get("from") != "" && q.Get("to") != "":
			from, err1 := strconv.ParseInt(q.Get("from"), 10, 64)
			to, err2 := strconv.ParseInt(q.Get("to"), 10, 64)
			if err1 != nil || err2 != nil || to <= from {
				http.Error(w, "bad from/to parameters", http.StatusBadRequest)
				return
			}
			if stepNS > 0 {
				resp.Buckets = st.Window(k, from, to, stepNS)
			} else {
				agg, ok := st.Aggregate(k, from, to)
				if !ok {
					http.Error(w, "no samples in range", http.StatusNotFound)
					return
				}
				resp.Agg = &agg
			}
		default:
			http.Error(w, "need last, window_ms, or from/to", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}
}
