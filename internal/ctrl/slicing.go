package ctrl

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"flexric/internal/nvs"
	"flexric/internal/rest"
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

	mu     sync.Mutex
	status map[server.AgentID]*sm.SliceStatus
}

// SlicingOption configures a SlicingController.
type SlicingOption func(*slicingOptions)

type slicingOptions struct {
	mon *Monitor
}

// WithMonitor serves /stats from mon's latest MAC reports and
// /stats/agg from mon's store (its own default one when it was built
// without TSDB) instead of a private MAC subscription, so a process
// with one monitor subscribes to each agent's MAC once. mon must
// subscribe to MAC and decode.
func WithMonitor(mon *Monitor) SlicingOption {
	return func(o *slicingOptions) { o.mon = mon }
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
	if o.mon != nil && (o.mon.layers&MonMAC == 0 || !o.mon.decode) {
		return nil, errors.New("ctrl: slicing needs a monitor that subscribes to MAC and decodes")
	}
	c := &SlicingController{
		srv:    srv,
		mon:    o.mon,
		scheme: scheme,
		status: make(map[server.AgentID]*sm.SliceStatus),
	}
	if c.mon == nil {
		// Internal DB for RAN stats, as in Table 4.
		c.mon = NewMonitor(srv, MonitorConfig{Scheme: scheme, PeriodMS: 10, Layers: MonMAC, Decode: true})
	}
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
	rest.Handle(mux, "ctrl.http", c.routes())
	lis, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return nil, err
	}
	c.lis = lis
	c.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = c.http.Serve(lis) }()
	return c, nil
}

// routes lists the REST northbound; each route counts
// ctrl.http.requests.<label> and observes ctrl.http.latency.<label>.
func (c *SlicingController) routes() []rest.Route {
	return []rest.Route{
		{Pattern: "GET /agents", Label: "agents", Handler: c.handleAgents},
		{Pattern: "GET /stats", Label: "stats", Handler: c.handleStats},
		{Pattern: "GET /stats/agg", Label: "stats_agg", Handler: c.handleStatsAgg},
		{Pattern: "GET /slices", Label: "slices", Handler: c.handleSliceStatus},
		{Pattern: "POST /slices", Label: "slices", Handler: c.handleSlices},
		{Pattern: "POST /assoc", Label: "assoc", Handler: c.handleAssoc},
	}
}

// Addr returns the REST northbound address.
func (c *SlicingController) Addr() string { return c.lis.Addr().String() }

// Close stops the REST server (the E2 server is owned by the caller).
func (c *SlicingController) Close() error { return c.http.Close() }

// SliceStatus returns the agent's latest SC SM status report, or nil
// before its first one: the source of GET /slices, the topology's
// slice panel and the A1 loop. Reports are replaced, never modified;
// the caller must not modify one.
func (c *SlicingController) SliceStatus(id server.AgentID) *sm.SliceStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status[id]
}

// Monitor exposes the stats DB behind /stats.
func (c *SlicingController) Monitor() *Monitor { return c.mon }

// TSDB exposes the time-series store behind /stats/agg: the monitor's.
func (c *SlicingController) TSDB() *tsdb.Store { return c.mon.TSDB() }

func agentParam(r *http.Request) (server.AgentID, error) {
	v := r.URL.Query().Get("agent")
	if v == "" {
		return 0, errors.New("missing agent parameter")
	}
	n, ok := tsdb.ParseID(v, 32, false)
	if !ok {
		return 0, errors.New("bad agent parameter")
	}
	return server.AgentID(n), nil
}

// readJSON decodes a request body into v under rest.ReadJSON's rules,
// answering the client itself when it cannot. It reports whether v
// holds the body.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	code, err := rest.ReadJSON(w, r, v)
	if err != nil {
		http.Error(w, err.Error(), code)
	}
	return err == nil
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
	rest.WriteJSON(w, http.StatusOK, out)
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
	rest.WriteJSON(w, http.StatusOK, rep)
}

// handleStatsAgg serves windowed aggregates over a UE's MAC series: the
// decision input for slicing policies that want a stable signal instead
// of the single latest report.
func (c *SlicingController) handleStatsAgg(w http.ResponseWriter, r *http.Request) {
	// /stats/agg reads the MAC series only, over the last second unless
	// window_ms says otherwise.
	v := r.URL.Query()
	v.Set("fn", "mac")
	if v.Get("window_ms") == "" {
		v.Set("window_ms", "1000")
	}
	q, err := tsdb.ParseQuery(v, tsdb.FormWindow)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k := tsdb.SeriesKey{Agent: uint32(q.Agent), Fn: q.Fn, UE: uint16(q.UE), Field: q.Field}
	agg, ok := c.mon.TSDB().Aggregate(k, q.From, q.To)
	if !ok {
		http.Error(w, "no samples in window", http.StatusNotFound)
		return
	}
	rest.WriteJSON(w, http.StatusOK, agg)
}

func (c *SlicingController) handleSliceStatus(w http.ResponseWriter, r *http.Request) {
	id, err := agentParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st := c.SliceStatus(id)
	if st == nil {
		http.Error(w, "no slice status yet", http.StatusNotFound)
		return
	}
	rest.WriteJSON(w, http.StatusOK, st)
}

func (c *SlicingController) handleSlices(w http.ResponseWriter, r *http.Request) {
	id, err := agentParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var body SliceConfigJSON
	if !readJSON(w, r, &body) {
		return
	}
	ctl, err := SliceControlFromJSON(&body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.Apply(id, ctl); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *SlicingController) handleAssoc(w http.ResponseWriter, r *http.Request) {
	id, err := agentParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var body AssocJSON
	if !readJSON(w, r, &body) {
		return
	}
	ctl := &sm.SliceControl{Op: sm.OpAssociateUE, RNTI: body.RNTI, SliceID: body.SliceID}
	if err := c.Apply(id, ctl); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// SliceControlFromJSON converts and validates a POST /slices body: the
// one conversion behind the REST handler and the in-process iApps.
func SliceControlFromJSON(body *SliceConfigJSON) (*sm.SliceControl, error) {
	if body.Algo == "none" {
		return &sm.SliceControl{Op: sm.OpDisableSlicing}, nil
	}
	if body.Algo != "nvs" && body.Algo != "" {
		return nil, fmt.Errorf("unknown algo %q", body.Algo)
	}
	cfgs := make([]nvs.Config, 0, len(body.Slices))
	for _, s := range body.Slices {
		c := nvs.Config{ID: s.ID, NoSharing: s.NoSharing, UESched: s.UESched}
		switch s.Kind {
		case "", "capacity":
			// Checked here: past the wire's parts per million, an
			// out-of-range share would wrap into a valid one.
			if !(s.Capacity > 0 && s.Capacity <= 1) {
				return nil, fmt.Errorf("slice %d: capacity %v outside (0, 1]", s.ID, s.Capacity)
			}
			c.Kind, c.Capacity = nvs.KindCapacity, s.Capacity
		case "rate":
			c.Kind, c.RateRsv, c.RateRef = nvs.KindRate, s.RateRsv, s.RateRef
		default:
			return nil, fmt.Errorf("unknown slice kind %q", s.Kind)
		}
		cfgs = append(cfgs, c)
	}
	return &sm.SliceControl{Op: sm.OpConfigureSlices, Slices: sm.ParamsFromNVS(cfgs)}, nil
}

// Apply sends an SC SM control to an agent and waits for the ack.
func (c *SlicingController) Apply(id server.AgentID, ctl *sm.SliceControl) error {
	_, err := c.srv.ControlWait(id, sm.IDSliceCtrl, nil, sm.EncodeSliceControl(c.scheme, ctl))
	return err
}
