package obs

import (
	"net/http"
	"sort"
	"strconv"

	"flexric/internal/rest"
	"flexric/internal/trace"
)

// SpanNode is one span in the /traces response, with its children
// nested beneath it.
type SpanNode struct {
	SpanID     uint64      `json:"span_id"`
	Parent     uint64      `json:"parent,omitempty"`
	Name       string      `json:"name"`
	StartNS    int64       `json:"start_ns"`
	DurationNS int64       `json:"duration_ns"`
	Children   []*SpanNode `json:"children,omitempty"`
}

// TraceTree is one trace in the /traces response.
type TraceTree struct {
	TraceID uint64      `json:"trace_id"`
	Spans   int         `json:"spans"`
	Roots   []*SpanNode `json:"roots"`
}

// handleTraces serves GET /traces?limit=N: the N most recently active
// traces, each as a span tree with per-stage durations.
func handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 16
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	rest.WriteJSON(w, http.StatusOK, BuildTraceTrees(trace.Snapshot(), limit))
}

// BuildTraceTrees groups spans by trace and nests them by parent span
// ID, returning the `limit` most recently active traces, most recent
// first. Spans whose parent fell out of the ring (or never ended)
// surface as additional roots rather than being dropped.
func BuildTraceTrees(spans []trace.SpanData, limit int) []TraceTree {
	// spans is oldest-first; walk backwards to rank traces by recency.
	order := make([]uint64, 0, min(limit, len(spans)))
	seen := make(map[uint64]bool)
	for i := len(spans) - 1; i >= 0 && len(order) < limit; i-- {
		id := spans[i].TraceID
		if !seen[id] {
			seen[id] = true
			order = append(order, id)
		}
	}

	byTrace := make(map[uint64][]trace.SpanData, len(order))
	for _, s := range spans {
		if seen[s.TraceID] {
			byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		}
	}

	out := make([]TraceTree, 0, len(order))
	for _, id := range order {
		group := byTrace[id]
		nodes := make(map[uint64]*SpanNode, len(group))
		for _, s := range group {
			nodes[s.SpanID] = &SpanNode{
				SpanID:     s.SpanID,
				Parent:     s.Parent,
				Name:       s.Name,
				StartNS:    s.StartNS,
				DurationNS: s.DurationNS,
			}
		}
		tree := TraceTree{TraceID: id, Spans: len(group)}
		for _, s := range group {
			n := nodes[s.SpanID]
			if p := nodes[s.Parent]; p != nil && s.Parent != s.SpanID {
				p.Children = append(p.Children, n)
			} else {
				tree.Roots = append(tree.Roots, n)
			}
		}
		for _, n := range nodes {
			sortByStart(n.Children)
		}
		sortByStart(tree.Roots)
		out = append(out, tree)
	}
	return out
}

func sortByStart(ns []*SpanNode) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].StartNS < ns[j].StartNS })
}
