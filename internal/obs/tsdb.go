package obs

import (
	"net/http"

	"flexric/internal/rest"
	"flexric/internal/trace"
	"flexric/internal/tsdb"
)

// handleTSDBPartial serves GET /tsdb/partial: one shard's
// tsdb.PartialLeg for a federated query, the fold a fed-coord query leg
// answers with too. Every matching series is folded into one mergeable
// tsdb.PartialAgg (or, with step_ms, one list of aligned
// PartialBuckets, always the full [from, to) grid). agent and ue accept
// "all" as wildcards (fn and field stay required — a cross-field merge
// is meaningless); from/to are absolute Unix-ns bounds.
//
//	GET /tsdb/partial?agent=all&fn=mac&ue=all&field=throughput_bps&from=N&to=N[&step_ms=S]
func handleTSDBPartial(st *tsdb.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := trace.StartRoot("obs.tsdb.partial")
		defer sp.End()
		q, err := tsdb.ParseQuery(r.URL.Query(), tsdb.FormRange|tsdb.FormAll)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rest.WriteJSON(w, http.StatusOK, st.Partial(q))
	}
}

// handleTSDBSeries serves GET /tsdb/series?agent=N&fn=F: the live
// series inventory, optionally filtered by agent and/or RAN function.
func handleTSDBSeries(st *tsdb.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := trace.StartRoot("obs.tsdb.series")
		defer sp.End()
		q, err := tsdb.ParseQuery(r.URL.Query(), 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rest.WriteJSON(w, http.StatusOK, st.List(q.Agent, q.Fn))
	}
}

// handleTSDBStats serves GET /tsdb/stats: the store-wide occupancy and
// compression-efficiency summary (series/chunk counts, bytes per
// compressed sample, tier occupancy, raw-archive size).
func handleTSDBStats(st *tsdb.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := trace.StartRoot("obs.tsdb.stats")
		defer sp.End()
		rest.WriteJSON(w, http.StatusOK, st.Stats())
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
		q, err := tsdb.ParseQuery(r.URL.Query(), tsdb.FormLast|tsdb.FormWindow|tsdb.FormRange)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		k := tsdb.SeriesKey{Agent: uint32(q.Agent), Fn: q.Fn, UE: uint16(q.UE), Field: q.Field}
		resp := queryResponse{Key: k, Field: q.Field.String()}
		switch {
		case q.Last > 0:
			resp.Samples = st.LastK(k, q.Last, nil)
			if len(resp.Samples) == 0 {
				http.Error(w, "no samples", http.StatusNotFound)
				return
			}
		case q.StepNS > 0:
			resp.Buckets = st.Window(k, q.From, q.To, q.StepNS)
		default:
			agg, ok := st.Aggregate(k, q.From, q.To)
			if !ok {
				http.Error(w, "no samples in range", http.StatusNotFound)
				return
			}
			resp.Agg = &agg
		}
		rest.WriteJSON(w, http.StatusOK, resp)
	}
}
