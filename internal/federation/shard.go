package federation

import (
	"fmt"
	"net/url"
	"os"
	"slices"
	"sync"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/obs"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/snapfile"
	"flexric/internal/transport"
	"flexric/internal/tsdb"
)

// ShardConfig parameterizes one near-RT shard controller.
type ShardConfig struct {
	// Name is the shard's ring member name.
	Name string
	// Index distinguishes the shard's northbound node identity
	// (NodeID 9000+Index), mirroring the recursive controller's 8000.
	Index     int
	E2Scheme  e2ap.Scheme
	SMScheme  sm.Scheme
	Transport transport.Kind
	// SouthAddr is where the shard's agents connect (":0" for ephemeral).
	SouthAddr string
	// ObsAddr is where the shard's observability server listens; empty
	// starts none. The root does not query it: federated query legs
	// arrive over fed-coord.
	ObsAddr string
	// SnapshotDir, when non-empty, is the shared directory of shard
	// tsdb snapshots: this shard maintains SnapshotFile(dir, Name) and
	// restores a dead peer's file on takeover. Empty disables failover
	// state transfer (streams still re-home, history does not).
	SnapshotDir string
	// SnapshotEvery adds a periodic snapshot on top of the final
	// snapshot Close always writes (0 = final-only).
	SnapshotEvery time.Duration
	// Resilience parameterizes both planes: southbound retention/replay
	// for the shard's agents and the northbound reconnect supervisor
	// toward the root.
	Resilience *resilience.Config
	// PeriodMS is the monitor's report period (default 1).
	PeriodMS uint32
}

// Shard is one near-RT controller of the federation: a full controller
// core (server + monitor + tsdb + obs) for the agents consistent
// hashing assigns it, plus a northbound agent presenting those agents
// to the root through a ctrl.Proxy — the recursive composition one
// level up. A root leg whose agent has not re-homed here yet (the
// failover window) is parked by the proxy until the agent arrives.
type Shard struct {
	cfg       ShardConfig
	srv       *server.Server
	mon       *ctrl.Monitor
	db        *tsdb.Store
	obsSrv    *obs.Server
	north     *agent.Agent
	proxy     *ctrl.Proxy
	southAddr string

	// stopMu orders every report loop's wg.Add before Close's
	// wg.Wait: a coord subscription arriving during Close starts none.
	stopMu    sync.Mutex
	stopCh    chan struct{}
	snapDone  <-chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewShard starts the shard's south server, monitor, obs server, and
// northbound agent (attach to the root with ConnectRoot).
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("federation: shard needs a name")
	}
	s := &Shard{
		cfg:    cfg,
		db:     tsdb.New(tsdb.Config{}),
		stopCh: make(chan struct{}),
	}
	s.srv = server.New(server.Config{
		Scheme:     cfg.E2Scheme,
		Transport:  cfg.Transport,
		Resilience: cfg.Resilience,
	})
	// Series are keyed by the agent's global node ID, not the
	// transport-assigned AgentID: the shard's snapshot then stays
	// meaningful on whichever shard restores it during failover.
	s.mon = ctrl.NewMonitor(s.srv, ctrl.MonitorConfig{
		Scheme:   cfg.SMScheme,
		PeriodMS: cfg.PeriodMS,
		Decode:   true,
		TSDB:     s.db,
		// Node-ID-keyed series are collision-free, so the monitor keeps
		// them across disconnects: a transient keepalive flap after a
		// takeover must not destroy the history adopt() just restored.
		// Single-home ownership is enforced by adopt's own eviction pass
		// instead.
		SeriesAgent: func(info server.AgentInfo) uint32 { return uint32(info.NodeID.NodeID) },
	})
	s.north = agent.New(agent.Config{
		NodeID: e2ap.GlobalE2NodeID{
			PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: e2ap.NodeENB,
			NodeID: uint64(9000 + cfg.Index),
		},
		Scheme:     cfg.E2Scheme,
		Transport:  cfg.Transport,
		Resilience: cfg.Resilience,
	})
	// Root legs carry a WrapTrigger'd agent key; indications pass
	// through unchanged, so the root sees exactly what a direct
	// subscription would deliver.
	var err error
	s.proxy, err = ctrl.NewProxy(s.srv, s.north,
		ctrl.ProxyFn{Def: e2ap.RANFunctionItem{ID: sm.IDMACStats, Revision: 1, OID: "fed-mac"}, Route: routeByNode},
		ctrl.ProxyFn{Def: e2ap.RANFunctionItem{ID: sm.IDRLCStats, Revision: 1, OID: "fed-rlc"}, Route: routeByNode},
		ctrl.ProxyFn{Def: e2ap.RANFunctionItem{ID: sm.IDPDCPStats, Revision: 1, OID: "fed-pdcp"}, Route: routeByNode})
	if err != nil {
		return nil, err
	}
	if err := s.north.RegisterFunction(&coordFn{s: s}); err != nil {
		return nil, err
	}

	if s.southAddr, err = s.srv.Start(cfg.SouthAddr); err != nil {
		return nil, err
	}
	if cfg.ObsAddr != "" {
		if s.obsSrv, err = obs.NewServer(cfg.ObsAddr, obs.WithTSDB(s.db)); err != nil {
			s.srv.Close()
			return nil, err
		}
	}
	if cfg.SnapshotDir != "" && cfg.SnapshotEvery > 0 {
		s.snapDone = snapfile.Every(s.db, SnapshotFile(cfg.SnapshotDir, cfg.Name),
			cfg.SnapshotEvery, s.stopCh, nil)
	}
	return s, nil
}

// ConnectRoot attaches the shard to the root controller.
func (s *Shard) ConnectRoot(rootAddr string) error {
	_, err := s.north.Connect(rootAddr)
	return err
}

// SouthAddr returns the address the shard's agents connect to.
func (s *Shard) SouthAddr() string { return s.southAddr }

// ObsAddr returns the shard's observability base address (host:port),
// or "" when it runs no obs server.
func (s *Shard) ObsAddr() string {
	if s.obsSrv == nil {
		return ""
	}
	return s.obsSrv.Addr()
}

// Name returns the shard's ring member name.
func (s *Shard) Name() string { return s.cfg.Name }

// DB returns the shard's time-series store.
func (s *Shard) DB() *tsdb.Store { return s.db }

// Monitor returns the shard's monitoring iApp.
func (s *Shard) Monitor() *ctrl.Monitor { return s.mon }

// AgentKeys returns the global node IDs of the currently served agents.
func (s *Shard) AgentKeys() []uint64 {
	agents := s.proxy.Agents()
	out := make([]uint64, 0, len(agents))
	for _, info := range agents {
		if k := info.NodeID.NodeID; !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// Close tears the shard down, writing the final failover snapshot so a
// killed shard's successor can restore its series. Idempotent.
func (s *Shard) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.stopMu.Lock()
		close(s.stopCh)
		s.stopMu.Unlock()
		s.wg.Wait()
		if s.snapDone != nil {
			// The snapshot loop writes a final snapshot on stop; wait so
			// ours below cannot race an older in-flight write.
			<-s.snapDone
		}
		// The failover snapshot is written before the north agent
		// closes: the root starts failover when that association drops,
		// and the ring successor restores this file. Closing the south
		// server does not empty the store: the monitor keys series by
		// node ID (SeriesAgent) and keeps them across disconnects.
		if s.cfg.SnapshotDir != "" {
			err = snapfile.Save(s.db, SnapshotFile(s.cfg.SnapshotDir, s.cfg.Name))
		}
		s.north.Close()
		if serr := s.srv.Close(); err == nil {
			err = serr
		}
		s.mon.Close()
		if s.obsSrv != nil {
			if cerr := s.obsSrv.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}

// adopt executes a takeover order: restore the dead shard's snapshot,
// then evict every restored agent that re-homed to some other shard so
// each key's history lives on exactly one shard.
func (s *Shard) adopt(t *Takeover) error {
	if s.cfg.SnapshotDir == "" {
		return fmt.Errorf("federation: shard %s has no snapshot dir", s.cfg.Name)
	}
	path := SnapshotFile(s.cfg.SnapshotDir, t.From)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil // dead shard never snapshotted; streams still re-home
	}
	if err := snapfile.Load(s.db, path); err != nil {
		return err
	}
	adopted := make(map[uint32]bool, len(t.Agents))
	for _, k := range t.Agents {
		adopted[uint32(k)] = true
	}
	for _, k := range s.AgentKeys() {
		adopted[uint32(k)] = true
	}
	seen := make(map[uint32]bool)
	for _, info := range s.db.List(-1, 0) {
		seen[info.Key.Agent] = true
	}
	for a := range seen {
		if !adopted[a] {
			s.db.EvictAgent(a)
		}
	}
	return nil
}

// routeByNode sends a root leg to the agent its wrapped key names.
func routeByNode(_ agent.ControllerID, trigger []byte) (func(server.AgentInfo) bool, []byte, error) {
	key, inner, err := UnwrapTrigger(trigger)
	if err != nil {
		return nil, nil, err
	}
	return func(info server.AgentInfo) bool { return info.NodeID.NodeID == key }, inner, nil
}

// --- coordination RAN function ---

// coordFn is the federation control plane: the root subscribes for
// periodic Reports and sends query legs and Takeover orders through
// control.
type coordFn struct {
	s *Shard
}

func (f *coordFn) Definition() e2ap.RANFunctionItem {
	return e2ap.RANFunctionItem{ID: IDFedCoord, Revision: 1, OID: FedOID}
}

func (f *coordFn) OnSubscription(_ agent.ControllerID, req *e2ap.SubscriptionRequest, tx agent.IndicationSender) error {
	s := f.s
	trig, err := DecodeCoordTrigger(req.EventTrigger)
	if err != nil {
		return err
	}
	period := time.Duration(trig.PeriodMS) * time.Millisecond
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	obsURL := s.ObsAddr()
	if obsURL != "" {
		obsURL = "http://" + obsURL
	}
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	select {
	case <-s.stopCh:
		return fmt.Errorf("federation: shard %s is closing", s.cfg.Name)
	default:
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		send := func() {
			rep := &Report{
				Name:   s.cfg.Name,
				E2:     s.southAddr,
				Obs:    obsURL,
				Agents: s.AgentKeys(),
				TS:     time.Now().UnixNano(),
			}
			_ = tx.SendIndication(1, e2ap.IndicationReport, nil, EncodeReport(rep))
		}
		send()
		for {
			select {
			case <-tick.C:
				send()
			case <-s.stopCh:
				return
			}
		}
	}()
	return nil
}

func (f *coordFn) OnSubscriptionDelete(agent.ControllerID, *e2ap.SubscriptionDeleteRequest) error {
	// Report pumps stop with the shard; per-subscription teardown is
	// not needed at one JSON message per period.
	return nil
}

func (f *coordFn) OnControl(_ agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
	if string(req.Header) == legHeader {
		return f.s.answerLeg(req.Payload)
	}
	t, err := DecodeTakeover(req.Payload)
	if err != nil {
		return nil, err
	}
	if err := f.s.adopt(t); err != nil {
		return nil, err
	}
	return nil, nil
}

// answerLeg answers one query leg (see legHeader) from the shard's
// store: the tsdb.PartialLeg of a range query, through the fold
// /tsdb/partial answers with, or the newest samples of a last=K query,
// each as its PER body.
func (s *Shard) answerLeg(payload []byte) ([]byte, error) {
	t0 := time.Now()
	v, err := url.ParseQuery(string(payload))
	if err != nil {
		return nil, fmt.Errorf("federation: bad leg query: %w", err)
	}
	q, err := tsdb.ParseQuery(v, tsdb.FormLast|tsdb.FormRange|tsdb.FormAll)
	if err != nil {
		return nil, fmt.Errorf("federation: bad leg query: %w", err)
	}
	var b []byte
	if q.Last > 0 {
		if q.Agent < 0 || q.UE < 0 {
			return nil, fmt.Errorf("federation: a last=K leg needs one agent and one ue")
		}
		b = tsdb.AppendSamples(nil, s.db.LastK(tsdb.SeriesKey{Agent: uint32(q.Agent), Fn: q.Fn, UE: uint16(q.UE), Field: q.Field}, q.Last, nil))
	} else {
		leg := s.db.Partial(q)
		b = tsdb.AppendLeg(nil, &leg)
	}
	if len(b) > maxLegBytes {
		return nil, fmt.Errorf("federation: leg answer of %d bytes exceeds %d", len(b), maxLegBytes)
	}
	tel.legs.Inc()
	tel.legBytes.Add(uint64(len(b)))
	tel.legLat.Observe(time.Since(t0))
	return b, nil
}
