// Package ctrl provides the controller specializations of §6, composed
// from the FlexRIC server library, iApps, and northbound communication
// interfaces: a monitoring controller (the "statistics iApp" of §5.3), a
// RAT-unaware slicing controller with a REST northbound (§6.1.2, Table
// 4), a flow-based traffic controller with a message-broker northbound
// (§6.1.1, Table 3), a relaying controller (the two-hop setup of §5.4),
// and a recursive virtualization controller (§6.2, Table 5).
package ctrl

import (
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

// Monitor is the statistics controller specialization of §5.3: an iApp
// that subscribes to the monitoring SMs of every connecting agent and
// "saves incoming messages to an in-memory data structure". The latest
// report per agent/layer is retained for event-driven consumers; when a
// tsdb.Store is attached, every decoded report is additionally broken
// into per-(agent, function, UE, field) series so control loops can
// query windowed history instead of a single snapshot, and raw-mode
// payloads are archived in the store's pooled ring instead of a
// freshly allocated copy per indication.
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
	retain      bool

	mu   sync.Mutex
	mac  map[server.AgentID]*sm.MACReport
	rlc  map[server.AgentID]*sm.RLCReport
	pdcp map[server.AgentID]*sm.PDCPReport
	raw  map[server.AgentID]map[uint16][]byte
	sid  map[server.AgentID]uint32 // SeriesAgent remap, when configured

	// pipes, when non-nil, carry decode + tsdb-ingest work off the
	// server's receive goroutines onto a fixed worker pool, hashed by
	// (agent, function) so each report stream stays ordered.
	pipes     []chan ingestJob
	wg        sync.WaitGroup
	closeOnce sync.Once

	indications atomic.Uint64
	bytesIn     atomic.Uint64
}

// ingestJob is one indication handed to an ingest pipeline. The payload
// is a pooled copy (the receive buffer is recycled as soon as the server
// callback returns) and is returned to the pool after ingest.
type ingestJob struct {
	agent   server.AgentID
	fnID    uint16
	payload []byte
	tc      trace.Context
}

// MonitorConfig parameterizes a Monitor.
type MonitorConfig struct {
	Scheme   sm.Scheme
	PeriodMS uint32
	Layers   MonitorLayers
	// Decode materializes reports; false stores raw payload copies.
	Decode bool
	// TSDB, when non-nil, receives every decoded report as per-field
	// time series and every raw-mode payload into its archive ring.
	// The monitor evicts an agent's series when it disconnects.
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
	SeriesAgent func(server.AgentInfo) uint32
	// RetainSeries keeps an agent's tsdb series across disconnects
	// instead of evicting them. The default eviction protects the
	// single-controller monitor, whose series are keyed by the
	// transport-assigned AgentID — an ID the server reuses, so stale
	// history would bleed into the next agent's series. A federation
	// shard keys series by the global node ID (collision-free) and
	// retains them: a transient keepalive flap must not destroy the
	// history a failover takeover just restored, mirroring how the
	// resilience layer retains a lost agent's subscriptions.
	RetainSeries bool
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
	m := &Monitor{
		srv:         srv,
		scheme:      cfg.Scheme,
		periodMS:    cfg.PeriodMS,
		layers:      cfg.Layers,
		decode:      cfg.Decode,
		db:          cfg.TSDB,
		seriesAgent: cfg.SeriesAgent,
		retain:      cfg.RetainSeries,
		mac:         make(map[server.AgentID]*sm.MACReport),
		rlc:         make(map[server.AgentID]*sm.RLCReport),
		pdcp:        make(map[server.AgentID]*sm.PDCPReport),
		raw:         make(map[server.AgentID]map[uint16][]byte),
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
					m.ingestOne(job.tc, job.agent, job.fnID, job.payload)
					bufpool.Put(job.payload)
				}
			}()
		}
	}
	srv.OnAgentConnect(func(info server.AgentInfo) { m.onAgent(info) })
	srv.OnAgentDisconnect(func(info server.AgentInfo) {
		sid := m.seriesID(info.ID)
		m.mu.Lock()
		delete(m.mac, info.ID)
		delete(m.rlc, info.ID)
		delete(m.pdcp, info.ID)
		delete(m.raw, info.ID)
		delete(m.sid, info.ID)
		m.mu.Unlock()
		if m.db != nil && !m.retain {
			m.db.EvictAgent(sid)
		}
	})
	return m
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
	type layerSub struct {
		flag MonitorLayers
		fnID uint16
	}
	for _, l := range []layerSub{
		{MonMAC, sm.IDMACStats},
		{MonRLC, sm.IDRLCStats},
		{MonPDCP, sm.IDPDCPStats},
	} {
		if m.layers&l.flag == 0 || !info.HasFunction(l.fnID) {
			continue
		}
		fnID := l.fnID
		_, _ = m.srv.Subscribe(info.ID, fnID,
			sm.EncodeTrigger(m.scheme, sm.Trigger{PeriodMS: m.periodMS}),
			[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
			server.SubscriptionCallbacks{
				OnIndication: func(ev server.IndicationEvent) { m.store(ev, fnID) },
			})
	}
}

func (m *Monitor) store(ev server.IndicationEvent, fnID uint16) {
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
		h := (uint32(ev.Agent)*31 + uint32(fnID)) % uint32(len(m.pipes))
		m.pipes[h] <- ingestJob{agent: ev.Agent, fnID: fnID, payload: cp, tc: sp.Context()}
		return
	}
	m.ingestOne(sp.Context(), ev.Agent, fnID, payload)
}

// ingestOne decodes (or archives) one indication payload and updates the
// latest-report maps and the attached time-series store. Per-shard
// reports carrying the same CellTimeMS are merged: the UE lists append
// onto the retained report (copy-on-write, so a reader holding the
// previous pointer never observes mutation).
func (m *Monitor) ingestOne(tc trace.Context, agent server.AgentID, fnID uint16, payload []byte) {
	if !m.decode {
		if m.db != nil {
			// Archive into the pooled raw ring: the store copies the
			// payload into a reused slot buffer, so the per-indication
			// allocation of the map path disappears.
			asp := trace.StartChild(tc, "tsdb.append")
			m.db.AppendRaw(m.seriesID(agent), fnID, time.Now().UnixNano(), payload)
			asp.End()
			return
		}
		cp := append([]byte(nil), payload...)
		m.mu.Lock()
		per := m.raw[agent]
		if per == nil {
			per = make(map[uint16][]byte)
			m.raw[agent] = per
		}
		per[fnID] = cp
		m.mu.Unlock()
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
	if m.db != nil {
		asp := trace.StartChild(tc, "tsdb.append")
		now := time.Now().UnixNano()
		k := tsdb.SeriesKey{Agent: m.seriesID(agent), Fn: l.fn}
		for i := range *ues {
			var vs [maxRowFields]float64
			k.UE, vs = l.row(&(*ues)[i])
			m.db.AppendRow(k, l.fields, now, vs[:len(l.fields)])
		}
		asp.End()
	}
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

// Raw returns the latest raw payload for (agent, function) in raw mode.
// With an attached tsdb.Store the archive ring is authoritative and the
// returned slice is the caller's copy; without one it aliases the
// monitor's latest-payload map as before.
func (m *Monitor) Raw(id server.AgentID, fnID uint16) []byte {
	if m.db != nil {
		payload, _, ok := m.db.LastRaw(m.seriesID(id), fnID, nil)
		if !ok {
			return nil
		}
		return payload
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if per := m.raw[id]; per != nil {
		return per[fnID]
	}
	return nil
}

// TSDB returns the attached time-series store, or nil.
func (m *Monitor) TSDB() *tsdb.Store { return m.db }

// Counters reports total indications and payload bytes received.
func (m *Monitor) Counters() (indications, bytes uint64) {
	return m.indications.Load(), m.bytesIn.Load()
}

// Close drains and stops the ingest pipelines (no-op without
// IngestWorkers). Call it only after the server has stopped delivering
// indications; it is idempotent.
func (m *Monitor) Close() {
	m.closeOnce.Do(func() {
		for _, p := range m.pipes {
			close(p)
		}
		m.wg.Wait()
	})
}
