// Package obs is the SDK's live-introspection surface: a small HTTP
// server exposing the telemetry registry (text and JSON), the tracing
// ring as per-trace span trees, net/http/pprof, and — with WithStream —
// the control room: a WebSocket streaming layer plus an embedded
// browser dashboard. Mounted in the flexric-ctrl and flexric-agent
// binaries via the -obs flag.
//
// Endpoints:
//
//	GET /                 embedded control-room dashboard (WithStream only)
//	GET /metrics          telemetry text dump (same as the -telemetry flags)
//	GET /snapshot.json    telemetry snapshot as a JSON tree
//	GET /traces?limit=N   most recent N traces as JSON span trees
//	GET /tsdb/series      live time-series inventory (WithTSDB only)
//	GET /tsdb/query       samples / windowed aggregates (WithTSDB only)
//	GET /tsdb/stats       store occupancy & compression stats (WithTSDB only)
//	GET /tsdb/partial     one mergeable partial leg (tsdb.Store.Partial)
//	GET /topology.json    controller topology snapshot (WithTopology only)
//	GET /federation.json  federation-tier snapshot (WithFederation only)
//	    /a1/...           A1 policy northbound (WithA1 only; see internal/a1)
//	GET /stream/ws        WebSocket push stream (WithStream only)
//	GET /debug/pprof/     standard pprof index (profile, heap, trace, ...)
//
// Every route but pprof is registered with its method on the mux
// (internal/rest): a wrong method gets 405 with an Allow header, and a
// GET route also answers HEAD. Each route counts
// obs.http.requests.<route> and observes obs.http.latency.<route> (for
// the stream route the "latency" is the connection lifetime); the /a1/
// routes count under a1.http.* instead.
package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"flexric/internal/a1"
	"flexric/internal/rest"
	"flexric/internal/telemetry"
	"flexric/internal/tsdb"
)

// Server is the observability HTTP server.
type Server struct {
	lis  net.Listener
	http *http.Server
	hub  *Hub // nil unless WithStream
}

// Option configures optional surfaces of the observability server.
type Option func(*options)

type options struct {
	store    *tsdb.Store
	stream   bool
	flushMS  int
	topoFn   func() any
	a1Store  *a1.Store
	fedFn    func() any
	fedQuery http.HandlerFunc
}

// WithTSDB mounts the /tsdb/series, /tsdb/query, and /tsdb/stats
// endpoints over the given store, and makes it the source of the
// stream hub's tsdb channel when WithStream is also set.
func WithTSDB(st *tsdb.Store) Option {
	return func(o *options) { o.store = st }
}

// WithStream mounts the control room: the /stream/ws push endpoint and
// the dashboard at /. flushMS sets the hub's base flush tick (<= 0
// selects DefaultFlushMS). The stream hub installs the process-global
// trace tail hook and the store's append hook for as long as the server
// runs, so it is opt-in rather than always-on.
func WithStream(flushMS int) Option {
	return func(o *options) { o.stream = true; o.flushMS = flushMS }
}

// WithTopology mounts /topology.json and the stream hub's topology
// channel over fn, which must return a JSON-marshalable snapshot (the
// controller passes ctrl.Topology.Snapshot; obs stays decoupled from
// the ctrl package).
func WithTopology(fn func() any) Option {
	return func(o *options) { o.topoFn = fn }
}

// WithA1 mounts the A1 policy northbound (/a1/policies,
// /a1/policies/{id}, /a1/status, /a1/types) over the given store, and
// makes it the source of the stream hub's a1 channel when WithStream
// is also set.
func WithA1(st *a1.Store) Option {
	return func(o *options) { o.a1Store = st }
}

// WithFederation mounts /federation.json over fn, which must return a
// JSON-marshalable snapshot of the federation tier (the root passes
// federation.Root.Snapshot; obs stays decoupled from that package the
// same way WithTopology decouples it from ctrl).
func WithFederation(fn func() any) Option {
	return func(o *options) { o.fedFn = fn }
}

// WithFederatedQuery mounts h at /tsdb/query on a server with no local
// store: the federation root serves the same query contract by sending
// its shards query legs over E2 and merging. Ignored when
// WithTSDB is also set (the local store wins).
func WithFederatedQuery(h http.HandlerFunc) Option {
	return func(o *options) { o.fedQuery = h }
}

// NewServer binds addr (e.g. ":9090", "127.0.0.1:0") and starts serving.
func NewServer(addr string, opts ...Option) (*Server, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{lis: lis}
	if o.stream {
		s.hub = newHub(o.store, o.topoFn, o.a1Store, o.flushMS)
	}
	mux := http.NewServeMux()
	rest.Handle(mux, "obs.http", s.routes(&o))
	if o.a1Store != nil {
		rest.Handle(mux, "a1.http", a1.Routes(o.a1Store))
	}
	// pprof registers on the default mux only; re-mount explicitly so a
	// custom mux works and nothing else leaks in. These stay method-less:
	// the symbol lookup also takes POST.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.http.Serve(lis) }()
	return s, nil
}

// routes lists the server's own routes under the options given.
func (s *Server) routes(o *options) []rest.Route {
	rs := []rest.Route{
		{Pattern: "GET /metrics", Label: "metrics", Handler: handleMetrics},
		{Pattern: "GET /snapshot.json", Label: "snapshot", Handler: handleSnapshot},
		{Pattern: "GET /traces", Label: "traces", Handler: handleTraces},
	}
	if o.store != nil {
		rs = append(rs,
			rest.Route{Pattern: "GET /tsdb/series", Label: "tsdb_series", Handler: handleTSDBSeries(o.store)},
			rest.Route{Pattern: "GET /tsdb/query", Label: "tsdb_query", Handler: handleTSDBQuery(o.store)},
			rest.Route{Pattern: "GET /tsdb/stats", Label: "tsdb_stats", Handler: handleTSDBStats(o.store)},
			rest.Route{Pattern: "GET /tsdb/partial", Label: "tsdb_partial", Handler: handleTSDBPartial(o.store)})
	} else if o.fedQuery != nil {
		rs = append(rs, rest.Route{Pattern: "GET /tsdb/query", Label: "tsdb_query", Handler: o.fedQuery})
	}
	if o.topoFn != nil {
		rs = append(rs, rest.Route{Pattern: "GET /topology.json", Label: "topology", Handler: handleTopology(o.topoFn)})
	}
	if o.fedFn != nil {
		rs = append(rs, rest.Route{Pattern: "GET /federation.json", Label: "federation", Handler: handleTopology(o.fedFn)})
	}
	if s.hub != nil {
		rs = append(rs,
			rest.Route{Pattern: "GET /stream/ws", Label: "stream_ws", Handler: handleStreamWS(s.hub)},
			rest.Route{Pattern: "GET /{$}", Label: "root", Handler: handleDashboard})
	}
	return rs
}

// Addr returns the bound address, e.g. to print a startup banner.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Hub exposes the stream hub (nil unless WithStream), for tests.
func (s *Server) Hub() *Hub { return s.hub }

// Shutdown stops the server gracefully: stream clients receive a
// going-away WebSocket close frame, the producer hooks are uninstalled,
// and in-flight plain HTTP requests drain until ctx expires. The binaries call this from their signal handlers.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.hub != nil {
		s.hub.close()
	}
	if err := s.http.Shutdown(ctx); err != nil {
		_ = s.http.Close()
		return err
	}
	return nil
}

// Close stops the server immediately (tests and abnormal paths;
// binaries prefer Shutdown).
func (s *Server) Close() error {
	if s.hub != nil {
		s.hub.close()
	}
	return s.http.Close()
}

func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = telemetry.Dump(w)
}

func handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = telemetry.DumpJSON(w)
}

// handleTopology serves GET /topology.json: the controller topology
// snapshot the dashboard's topology panel renders.
func handleTopology(fn func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		rest.WriteJSON(w, http.StatusOK, fn())
	}
}
