package ctrl

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/tsdb"
)

// SlicingController is the RAT-unaware slicing specialization of §6.1.2
// (Table 4): an internal DB for RAN stats (cf. FlexRAN's RIB), an SC SM
// manager relaying REST commands, and an HTTP GET/POST northbound usable
// with nothing but curl.
//
// REST interface:
//
//	GET  /agents          → connected agents
//	GET  /stats?agent=N   → latest MAC report (internal DB)
//	GET  /stats/agg?agent=N&ue=R&field=F&window_ms=W
//	                      → windowed aggregate over the last W ms of the
//	                        UE's MAC series (tsdb.Agg JSON)
//	GET  /slices?agent=N  → latest SC SM status report
//	POST /slices?agent=N  → body SliceConfigJSON: configure slices
//	POST /assoc?agent=N   → body AssocJSON: associate UE to slice
type SlicingController struct {
	srv    *server.Server
	mon    *Monitor
	scheme sm.Scheme
	http   *http.Server
	lis    net.Listener
	store  *tsdb.Store

	mu     sync.Mutex
	status map[server.AgentID]*sm.SliceStatus
}

// SlicingOption configures a SlicingController.
type SlicingOption func(*slicingOptions)

type slicingOptions struct {
	store *tsdb.Store
}

// WithTSDB serves /stats/agg from an externally owned store (fed by the
// caller's Monitor) instead of a private one fed by the controller's
// internal MAC monitor. Use it when one process-wide store backs both
// the observability endpoints and the slicing northbound.
func WithTSDB(st *tsdb.Store) SlicingOption {
	return func(o *slicingOptions) { o.store = st }
}

// SliceConfigJSON is the REST body for POST /slices.
type SliceConfigJSON struct {
	Algo   string           `json:"algo"` // "nvs" or "none"
	Slices []SliceParamJSON `json:"slices"`
}

// SliceParamJSON is one slice in SliceConfigJSON.
type SliceParamJSON struct {
	ID        uint32  `json:"id"`
	Kind      string  `json:"kind"` // "capacity" or "rate"
	Capacity  float64 `json:"capacity,omitempty"`
	RateRsv   float64 `json:"rateRsv,omitempty"`
	RateRef   float64 `json:"rateRef,omitempty"`
	NoSharing bool    `json:"noSharing,omitempty"`
	UESched   string  `json:"ueSched,omitempty"`
}

// AssocJSON is the REST body for POST /assoc.
type AssocJSON struct {
	RNTI    uint16 `json:"rnti"`
	SliceID uint32 `json:"sliceId"`
}

// NewSlicingController attaches the slicing specialization to a server
// and serves its REST northbound on httpAddr (":0" picks a port).
func NewSlicingController(srv *server.Server, scheme sm.Scheme, httpAddr string, opts ...SlicingOption) (*SlicingController, error) {
	var o slicingOptions
	for _, opt := range opts {
		opt(&o)
	}
	c := &SlicingController{
		srv:    srv,
		scheme: scheme,
		status: make(map[server.AgentID]*sm.SliceStatus),
	}
	// Internal DB for RAN stats, as in Table 4. Without WithTSDB the
	// controller owns its store and its monitor feeds it; with it, the
	// external store is already fed by the caller's monitor and the
	// internal one only keeps the latest-report map for /stats.
	monCfg := MonitorConfig{Scheme: scheme, PeriodMS: 10, Layers: MonMAC, Decode: true}
	if o.store != nil {
		c.store = o.store
	} else {
		c.store = tsdb.New(tsdb.Config{})
		monCfg.TSDB = c.store
	}
	c.mon = NewMonitor(srv, monCfg)
	// Evict the per-agent slice status when an agent leaves; without
	// this the map grows forever under agent churn (the monitor maps
	// and tsdb series are evicted by the Monitor's own hook).
	srv.OnAgentDisconnect(func(info server.AgentInfo) {
		c.mu.Lock()
		delete(c.status, info.ID)
		c.mu.Unlock()
	})
	// Track SC SM status reports.
	srv.OnAgentConnect(func(info server.AgentInfo) {
		if !info.HasFunction(sm.IDSliceCtrl) {
			return
		}
		id := info.ID
		_, _ = srv.Subscribe(id, sm.IDSliceCtrl,
			sm.EncodeTrigger(scheme, sm.Trigger{PeriodMS: 100}), nil,
			server.SubscriptionCallbacks{
				OnIndication: func(ev server.IndicationEvent) {
					if st, err := sm.DecodeSliceStatus(ev.Env.IndicationPayload()); err == nil {
						c.mu.Lock()
						c.status[id] = st
						c.mu.Unlock()
					}
				},
			})
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/agents", c.handleAgents)
	mux.HandleFunc("/stats", c.handleStats)
	mux.HandleFunc("/stats/agg", c.handleStatsAgg)
	mux.HandleFunc("/slices", c.handleSlices)
	mux.HandleFunc("/assoc", c.handleAssoc)
	lis, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return nil, err
	}
	c.lis = lis
	c.http = &http.Server{Handler: mux}
	go func() { _ = c.http.Serve(lis) }()
	return c, nil
}

// Addr returns the REST northbound address.
func (c *SlicingController) Addr() string { return c.lis.Addr().String() }

// Close stops the REST server (the E2 server is owned by the caller).
func (c *SlicingController) Close() error { return c.http.Close() }

// Status returns a copy of the latest slice status per agent — the
// slice panel of the topology snapshot (see NewTopology).
func (c *SlicingController) Status() map[server.AgentID]*sm.SliceStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[server.AgentID]*sm.SliceStatus, len(c.status))
	for id, st := range c.status {
		cp := *st
		out[id] = &cp
	}
	return out
}

// Monitor exposes the internal stats DB.
func (c *SlicingController) Monitor() *Monitor { return c.mon }

// TSDB exposes the time-series store behind /stats/agg.
func (c *SlicingController) TSDB() *tsdb.Store { return c.store }

func agentParam(r *http.Request) (server.AgentID, error) {
	v := r.URL.Query().Get("agent")
	if v == "" {
		return 0, errors.New("missing agent parameter")
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad agent parameter: %v", err)
	}
	return server.AgentID(n), nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// requireJSON gates POST bodies on Content-Type application/json (any
// charset); anything else is 415, matching the A1 northbound's body
// handling.
func requireJSON(w http.ResponseWriter, r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mt != "application/json" {
		http.Error(w, "unsupported content type: want application/json", http.StatusUnsupportedMediaType)
		return false
	}
	return true
}

func (c *SlicingController) handleAgents(w http.ResponseWriter, r *http.Request) {
	type agentJSON struct {
		ID     int      `json:"id"`
		Node   string   `json:"node"`
		FnIDs  []uint16 `json:"ranFunctions"`
		Sliced bool     `json:"supportsSlicing"`
	}
	var out []agentJSON
	for _, a := range c.srv.Agents() {
		aj := agentJSON{ID: int(a.ID), Node: a.NodeID.String(), Sliced: a.HasFunction(sm.IDSliceCtrl)}
		for _, f := range a.Functions {
			aj.FnIDs = append(aj.FnIDs, f.ID)
		}
		out = append(out, aj)
	}
	writeJSON(w, out)
}

func (c *SlicingController) handleStats(w http.ResponseWriter, r *http.Request) {
	id, err := agentParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rep := c.mon.MAC(id)
	if rep == nil {
		http.Error(w, "no stats yet", http.StatusNotFound)
		return
	}
	writeJSON(w, rep)
}

// handleStatsAgg serves windowed aggregates over a UE's MAC series: the
// decision input for slicing policies that want a stable signal instead
// of the single latest report.
func (c *SlicingController) handleStatsAgg(w http.ResponseWriter, r *http.Request) {
	id, err := agentParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	ue, err := strconv.Atoi(q.Get("ue"))
	if err != nil || ue < 0 || ue > 0xFFFF {
		http.Error(w, "bad ue parameter", http.StatusBadRequest)
		return
	}
	field, ok := tsdb.ParseField(q.Get("field"))
	if !ok {
		http.Error(w, "unknown field", http.StatusBadRequest)
		return
	}
	windowNS := int64(time.Second)
	if v := q.Get("window_ms"); v != "" {
		if windowNS, ok = tsdb.ParseMS(v); !ok {
			http.Error(w, "bad window_ms parameter", http.StatusBadRequest)
			return
		}
	}
	now := time.Now().UnixNano()
	k := tsdb.SeriesKey{Agent: uint32(id), Fn: sm.IDMACStats, UE: uint16(ue), Field: field}
	agg, ok := c.store.Aggregate(k, now-windowNS, now)
	if !ok {
		http.Error(w, "no samples in window", http.StatusNotFound)
		return
	}
	writeJSON(w, agg)
}

func (c *SlicingController) handleSlices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id, err := agentParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		c.mu.Lock()
		st := c.status[id]
		c.mu.Unlock()
		if st == nil {
			http.Error(w, "no slice status yet", http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	case http.MethodPost:
		if !requireJSON(w, r) {
			return
		}
		var body SliceConfigJSON
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ctl, err := sliceControlFromJSON(&body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.apply(id, ctl); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

func (c *SlicingController) handleAssoc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id, err := agentParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !requireJSON(w, r) {
		return
	}
	var body AssocJSON
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctl := &sm.SliceControl{Op: sm.OpAssociateUE, RNTI: body.RNTI, SliceID: body.SliceID}
	if err := c.apply(id, ctl); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func sliceControlFromJSON(body *SliceConfigJSON) (*sm.SliceControl, error) {
	if body.Algo == "none" {
		return &sm.SliceControl{Op: sm.OpDisableSlicing}, nil
	}
	if body.Algo != "nvs" && body.Algo != "" {
		return nil, fmt.Errorf("unknown algo %q", body.Algo)
	}
	ctl := &sm.SliceControl{Op: sm.OpConfigureSlices}
	for _, s := range body.Slices {
		p := sm.SliceParams{ID: s.ID, NoSharing: s.NoSharing, UESched: s.UESched}
		switch s.Kind {
		case "", "capacity":
			p.Kind = 0
			p.CapacityQ = uint32(s.Capacity * 1_000_000)
		case "rate":
			p.Kind = 1
			p.RateRsv = s.RateRsv
			p.RateRef = s.RateRef
		default:
			return nil, fmt.Errorf("unknown slice kind %q", s.Kind)
		}
		ctl.Slices = append(ctl.Slices, p)
	}
	return ctl, nil
}

// apply sends an SC SM control and waits for the ack.
func (c *SlicingController) apply(id server.AgentID, ctl *sm.SliceControl) error {
	errCh := make(chan error, 1)
	if err := c.srv.Control(id, sm.IDSliceCtrl, nil,
		sm.EncodeSliceControl(c.scheme, ctl), true,
		func(_ []byte, err error) { errCh <- err }); err != nil {
		return err
	}
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	select {
	case err := <-errCh:
		return err
	case <-timeout.C:
		return errors.New("slice control timed out")
	}
}
