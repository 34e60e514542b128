// Package ctrl provides the controller specializations of §6, composed
// from the FlexRIC server library, iApps, and northbound communication
// interfaces: a monitoring controller (the "statistics iApp" of §5.3), a
// RAT-unaware slicing controller with a REST northbound (§6.1.2, Table
// 4), a flow-based traffic controller with a message-broker northbound
// (§6.1.1, Table 3), a relaying controller (the two-hop setup of §5.4),
// and a recursive virtualization controller (§6.2, Table 5).
package ctrl

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flexric/internal/bufpool"
	"flexric/internal/e2ap"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/trace"
	"flexric/internal/tsdb"
)

// MonitorLayers selects which monitoring SMs the controller subscribes
// to (bitmask).
type MonitorLayers uint8

// Monitorable layers.
const (
	MonMAC MonitorLayers = 1 << iota
	MonRLC
	MonPDCP
)

// MonAll subscribes to all monitoring SMs.
const MonAll = MonMAC | MonRLC | MonPDCP

// monLayers lists the monitoring SMs in MonitorLayers bit order.
var monLayers = [...]uint16{sm.IDMACStats, sm.IDRLCStats, sm.IDPDCPStats}

// Monitor is the statistics controller specialization of §5.3: an iApp
// that subscribes to the monitoring SMs of every connecting agent and
// "saves incoming messages to an in-memory data structure". That
// structure is a tsdb.Store: every decoded report is broken into
// per-(agent, function, UE, field) series so control loops can query
// windowed history instead of a single snapshot, and raw-mode payloads
// are archived in the store's pooled ring. The latest decoded report per
// agent/layer is also retained for event-driven consumers.
type Monitor struct {
	srv      *server.Server
	scheme   sm.Scheme
	periodMS uint32
	layers   MonitorLayers
	// DecodeReports controls whether payloads are materialized into
	// report structs (true) or stored as raw SM bytes (false). The raw
	// mode matches the Fig. 8 setup, where the iApp archives messages.
	decode      bool
	db          *tsdb.Store
	seriesAgent func(server.AgentInfo) uint32

	mu   sync.Mutex
	mac  map[server.AgentID]*sm.MACReport
	rlc  map[server.AgentID]*sm.RLCReport
	pdcp map[server.AgentID]*sm.PDCPReport
	sid  map[server.AgentID]uint32 // SeriesAgent remap, when configured

	// taps holds the OnIndication callback per monitoring SM, in
	// monLayers order.
	taps [len(monLayers)]atomic.Pointer[func(server.IndicationEvent)]

	// pipes, when non-nil, carry decode + tsdb-ingest work off the
	// server's receive goroutines onto a fixed worker pool, hashed by
	// (agent, function) so each report stream stays ordered. closeMu
	// guards closed: a disconnect never sends on a closed pipe.
	pipes   []chan ingestJob
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool

	indications atomic.Uint64
	bytesIn     atomic.Uint64
}

// ingestJob is one indication handed to an ingest pipeline. The payload
// is a pooled copy (the receive buffer is recycled as soon as the server
// callback returns) and is returned to the pool after ingest. A job with
// forget set carries no payload: it follows a departed agent's queued
// reports down one pipe, and the last pipe to reach it forgets the agent.
type ingestJob struct {
	agent   server.AgentID
	fnID    uint16
	payload []byte
	tc      trace.Context
	forget  *atomic.Int32
}

// MonitorConfig parameterizes a Monitor.
type MonitorConfig struct {
	Scheme   sm.Scheme
	PeriodMS uint32
	Layers   MonitorLayers
	// Decode materializes reports; false archives raw payloads.
	Decode bool
	// TSDB receives every decoded report as per-field time series and
	// every raw-mode payload into its archive ring (default: a store of
	// tsdb.Config's defaults). The monitor evicts an agent's series and
	// ring when it disconnects, unless SeriesAgent is set.
	TSDB *tsdb.Store
	// IngestWorkers > 0 moves report decode and database ingest onto
	// that many pipeline goroutines, hashed by (agent, function): the
	// server's receive loops only copy the payload and enqueue, so a
	// slow database never backs up into the transport reads of other
	// agents. 0 keeps the historical inline behavior. With workers
	// enabled, call Close after the server has stopped.
	IngestWorkers int
	// SeriesAgent, when non-nil, maps a connecting agent to the uint32
	// agent component of its tsdb series keys (default: the
	// transport-assigned server.AgentID). Federation shards key series
	// by the agent's global E2 node ID so a shard's snapshot stays
	// meaningful when its agents re-home to the ring successor.
	//
	// It also decides retention. Without it, series are keyed by the
	// AgentID — an ID the server reuses — so a disconnect evicts them
	// lest stale history bleed into the next agent's series. With it,
	// keys are collision-free and survive disconnects: a transient
	// keepalive flap must not destroy the history a failover takeover
	// just restored, mirroring how the resilience layer retains a lost
	// agent's subscriptions.
	SeriesAgent func(server.AgentInfo) uint32
}

// NewMonitor attaches a monitoring iApp to the server. It subscribes to
// the selected layers of every agent as it connects.
func NewMonitor(srv *server.Server, cfg MonitorConfig) *Monitor {
	if cfg.PeriodMS == 0 {
		cfg.PeriodMS = 1
	}
	if cfg.Layers == 0 {
		cfg.Layers = MonAll
	}
	if cfg.TSDB == nil {
		cfg.TSDB = tsdb.New(tsdb.Config{})
	}
	m := &Monitor{
		srv:         srv,
		scheme:      cfg.Scheme,
		periodMS:    cfg.PeriodMS,
		layers:      cfg.Layers,
		decode:      cfg.Decode,
		db:          cfg.TSDB,
		seriesAgent: cfg.SeriesAgent,
		mac:         make(map[server.AgentID]*sm.MACReport),
		rlc:         make(map[server.AgentID]*sm.RLCReport),
		pdcp:        make(map[server.AgentID]*sm.PDCPReport),
		sid:         make(map[server.AgentID]uint32),
	}
	if cfg.IngestWorkers > 0 {
		m.pipes = make([]chan ingestJob, cfg.IngestWorkers)
		for i := range m.pipes {
			pipe := make(chan ingestJob, 256)
			m.pipes[i] = pipe
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				for job := range pipe {
					if job.forget != nil {
						if job.forget.Add(-1) == 0 {
							m.forget(job.agent)
						}
						continue
					}
					m.ingestOne(job.tc, job.agent, job.fnID, job.payload)
					bufpool.Put(job.payload)
				}
			}()
		}
	}
	srv.OnAgentConnect(func(info server.AgentInfo) { m.onAgent(info) })
	srv.OnAgentDisconnect(func(info server.AgentInfo) { m.onDisconnect(info.ID) })
	return m
}

// onDisconnect forgets a departed agent once the reports it already
// queued are ingested, lest a queued report bring the agent back: it
// sends a forget job down each pipe that carries one of the agent's
// streams. Without pipes, or after Close, it forgets at once.
func (m *Monitor) onDisconnect(id server.AgentID) {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	if m.pipes == nil || m.closed {
		m.forget(id)
		return
	}
	var pipes []chan ingestJob
	for i, fnID := range monLayers {
		if m.layers&(1<<i) == 0 {
			continue
		}
		if p := m.pipe(id, fnID); !slices.Contains(pipes, p) {
			pipes = append(pipes, p)
		}
	}
	left := new(atomic.Int32)
	left.Store(int32(len(pipes)))
	for _, p := range pipes {
		p <- ingestJob{agent: id, forget: left}
	}
}

// forget drops the agent's latest reports and series-key remap and,
// unless SeriesAgent keeps history across disconnects, its series and
// raw ring.
func (m *Monitor) forget(id server.AgentID) {
	sid := m.seriesID(id)
	m.mu.Lock()
	delete(m.mac, id)
	delete(m.rlc, id)
	delete(m.pdcp, id)
	delete(m.sid, id)
	m.mu.Unlock()
	if m.seriesAgent == nil {
		m.db.EvictAgent(sid)
	}
}

// pipe returns the ingest pipe of the (agent, function) stream.
func (m *Monitor) pipe(id server.AgentID, fnID uint16) chan ingestJob {
	return m.pipes[(uint32(id)*31+uint32(fnID))%uint32(len(m.pipes))]
}

// seriesID resolves the tsdb agent-key component for a connected agent:
// the SeriesAgent remap when configured, else the server.AgentID.
func (m *Monitor) seriesID(id server.AgentID) uint32 {
	if m.seriesAgent == nil {
		return uint32(id)
	}
	m.mu.Lock()
	v, ok := m.sid[id]
	m.mu.Unlock()
	if ok {
		return v
	}
	return uint32(id)
}

func (m *Monitor) onAgent(info server.AgentInfo) {
	if m.seriesAgent != nil {
		mapped := m.seriesAgent(info)
		m.mu.Lock()
		m.sid[info.ID] = mapped
		m.mu.Unlock()
	}
	for i, fnID := range monLayers {
		if m.layers&(1<<i) == 0 || !info.HasFunction(fnID) {
			continue
		}
		tap := &m.taps[i]
		_, _ = m.srv.Subscribe(info.ID, fnID,
			sm.EncodeTrigger(m.scheme, sm.Trigger{PeriodMS: m.periodMS}),
			[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
			server.SubscriptionCallbacks{
				OnIndication: func(ev server.IndicationEvent) { m.store(ev, fnID, tap) },
			})
	}
}

// OnIndication makes fn see every indication of the monitoring SM fnID
// on the server's receive goroutine, before the monitor decodes it: the
// iApps that share the monitor's subscription hook in here instead of
// subscribing again. The event's payload aliases the receive buffer and
// is valid only during the call. fn replaces any earlier callback for
// fnID. It is an error when the monitor does not subscribe to fnID.
func (m *Monitor) OnIndication(fnID uint16, fn func(server.IndicationEvent)) error {
	for i, id := range monLayers {
		if id == fnID && m.layers&(1<<i) != 0 {
			m.taps[i].Store(&fn)
			return nil
		}
	}
	return fmt.Errorf("ctrl: monitor does not subscribe to RAN function %d", fnID)
}

func (m *Monitor) store(ev server.IndicationEvent, fnID uint16, tap *atomic.Pointer[func(server.IndicationEvent)]) {
	if fn := tap.Load(); fn != nil {
		(*fn)(ev)
	}
	// The controller-callback stage of the per-indication trace: SM
	// decode (when enabled) + database update.
	sp := trace.StartChild(ev.Trace, "ctrl.monitor.store")
	defer sp.End()
	payload := ev.Env.IndicationPayload()
	m.indications.Add(1)
	m.bytesIn.Add(uint64(len(payload)))
	if m.pipes != nil {
		// Hand off to the ingest pipeline for this (agent, function)
		// stream. The payload aliases the transport's recycled receive
		// buffer, so it is copied into a pooled buffer first. The send
		// blocks when the pipeline is full: backpressure reaches the
		// one slow agent instead of dropping its reports.
		cp := append(bufpool.Get(len(payload))[:0], payload...)
		m.pipe(ev.Agent, fnID) <- ingestJob{agent: ev.Agent, fnID: fnID, payload: cp, tc: sp.Context()}
		return
	}
	m.ingestOne(sp.Context(), ev.Agent, fnID, payload)
}

// ingestOne decodes (or archives) one indication payload and updates the
// latest-report maps and the time-series store. Per-shard
// reports carrying the same CellTimeMS are merged: the UE lists append
// onto the retained report (copy-on-write, so a reader holding the
// previous pointer never observes mutation).
func (m *Monitor) ingestOne(tc trace.Context, agent server.AgentID, fnID uint16, payload []byte) {
	if !m.decode {
		// Archive into the pooled raw ring: the store copies the payload
		// into a reused slot buffer.
		asp := trace.StartChild(tc, "tsdb.append")
		m.db.AppendRaw(m.seriesID(agent), fnID, time.Now().UnixNano(), payload)
		asp.End()
		return
	}
	switch fnID {
	case sm.IDMACStats:
		macLayer.ingest(m, tc, agent, payload)
	case sm.IDRLCStats:
		rlcLayer.ingest(m, tc, agent, payload)
	case sm.IDPDCPStats:
		pdcpLayer.ingest(m, tc, agent, payload)
	}
}

// maxRowFields is the widest UE row of the monitoring SMs (RLC's).
const maxRowFields = 9

// layerTable is the static description of one monitoring SM that
// drives ingest: its decoder, the report's cell time and UE list, the
// latest-report map it keeps, and its series mapping — the tsdb field of
// each column of a UE row and the extractor that reads a UE entry's
// RNTI and values in field order.
type layerTable[R, E any] struct {
	fn     uint16
	fields []tsdb.Field
	decode func([]byte) (*R, error)
	report func(*R) (cellTimeMS int64, ues *[]E)
	row    func(*E) (rnti uint16, vs [maxRowFields]float64)
	latest func(*Monitor) map[server.AgentID]*R
}

var macLayer = layerTable[sm.MACReport, sm.MACUEEntry]{
	fn:     sm.IDMACStats,
	fields: []tsdb.Field{tsdb.FieldCQI, tsdb.FieldMCS, tsdb.FieldRBsUsed, tsdb.FieldTxBits, tsdb.FieldThroughputBps},
	decode: sm.DecodeMACReport,
	report: func(r *sm.MACReport) (int64, *[]sm.MACUEEntry) { return r.CellTimeMS, &r.UEs },
	row: func(u *sm.MACUEEntry) (uint16, [maxRowFields]float64) {
		return u.RNTI, [maxRowFields]float64{float64(u.CQI), float64(u.MCS), float64(u.RBsUsed), float64(u.TxBits), u.ThroughputBps}
	},
	latest: func(m *Monitor) map[server.AgentID]*sm.MACReport { return m.mac },
}

var rlcLayer = layerTable[sm.RLCReport, sm.RLCUEEntry]{
	fn: sm.IDRLCStats,
	fields: []tsdb.Field{tsdb.FieldTxPackets, tsdb.FieldTxBytes, tsdb.FieldRxPackets, tsdb.FieldRxBytes,
		tsdb.FieldDropPackets, tsdb.FieldDropBytes, tsdb.FieldBufferBytes, tsdb.FieldBufferPkts, tsdb.FieldSojournMS},
	decode: sm.DecodeRLCReport,
	report: func(r *sm.RLCReport) (int64, *[]sm.RLCUEEntry) { return r.CellTimeMS, &r.UEs },
	row: func(u *sm.RLCUEEntry) (uint16, [maxRowFields]float64) {
		return u.RNTI, [maxRowFields]float64{float64(u.TxPackets), float64(u.TxBytes), float64(u.RxPackets), float64(u.RxBytes),
			float64(u.DropPackets), float64(u.DropBytes), float64(u.BufferBytes), float64(u.BufferPkts), float64(u.SojournMS)}
	},
	latest: func(m *Monitor) map[server.AgentID]*sm.RLCReport { return m.rlc },
}

var pdcpLayer = layerTable[sm.PDCPReport, sm.PDCPUEEntry]{
	fn:     sm.IDPDCPStats,
	fields: []tsdb.Field{tsdb.FieldTxPackets, tsdb.FieldTxBytes},
	decode: sm.DecodePDCPReport,
	report: func(r *sm.PDCPReport) (int64, *[]sm.PDCPUEEntry) { return r.CellTimeMS, &r.UEs },
	row: func(u *sm.PDCPUEEntry) (uint16, [maxRowFields]float64) {
		return u.RNTI, [maxRowFields]float64{float64(u.TxPackets), float64(u.TxBytes)}
	},
	latest: func(m *Monitor) map[server.AgentID]*sm.PDCPReport { return m.pdcp },
}

// ingest decodes one report, appends one tsdb row per UE (only this
// shard's UEs, before the merge), then makes the report the agent's
// latest of its layer.
func (l *layerTable[R, E]) ingest(m *Monitor, tc trace.Context, agent server.AgentID, payload []byte) {
	rep, err := l.decode(payload)
	if err != nil {
		return
	}
	cellTimeMS, ues := l.report(rep)
	asp := trace.StartChild(tc, "tsdb.append")
	now := time.Now().UnixNano()
	k := tsdb.SeriesKey{Agent: m.seriesID(agent), Fn: l.fn}
	for i := range *ues {
		var vs [maxRowFields]float64
		k.UE, vs = l.row(&(*ues)[i])
		m.db.AppendRow(k, l.fields, now, vs[:len(l.fields)])
	}
	asp.End()
	m.mu.Lock()
	latest := l.latest(m)
	if cur := latest[agent]; cur != nil {
		if curTimeMS, curUEs := l.report(cur); curTimeMS == cellTimeMS {
			*ues = append((*curUEs)[:len(*curUEs):len(*curUEs)], *ues...)
		}
	}
	latest[agent] = rep
	m.mu.Unlock()
}

// MAC returns the latest MAC report for an agent (decode mode only).
func (m *Monitor) MAC(id server.AgentID) *sm.MACReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mac[id]
}

// RLC returns the latest RLC report for an agent.
func (m *Monitor) RLC(id server.AgentID) *sm.RLCReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rlc[id]
}

// PDCP returns the latest PDCP report for an agent.
func (m *Monitor) PDCP(id server.AgentID) *sm.PDCPReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pdcp[id]
}

// Raw returns a copy of the latest raw payload for (agent, function) in
// raw mode, read from the store's archive ring, or nil when there is none.
func (m *Monitor) Raw(id server.AgentID, fnID uint16) []byte {
	payload, _, _ := m.db.LastRaw(m.seriesID(id), fnID, nil)
	return payload
}

// TSDB returns the monitor's time-series store: the configured one, or
// the default store NewMonitor built. It is never nil.
func (m *Monitor) TSDB() *tsdb.Store { return m.db }

// Counters reports total indications and payload bytes received.
func (m *Monitor) Counters() (indications, bytes uint64) {
	return m.indications.Load(), m.bytesIn.Load()
}

// Close drains and stops the ingest pipelines (no-op without
// IngestWorkers). Call it only after the server has stopped delivering
// indications; it is idempotent.
func (m *Monitor) Close() {
	m.closeMu.Lock()
	if !m.closed {
		m.closed = true
		for _, p := range m.pipes {
			close(p)
		}
	}
	m.closeMu.Unlock()
	m.wg.Wait()
}
