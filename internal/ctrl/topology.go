package ctrl

import (
	"sort"
	"time"

	"flexric/internal/a1"
	"flexric/internal/server"
	"flexric/internal/sm"
)

// Topology assembles the controller-state snapshot the control room's
// topology panel renders: connected agents with their RAN functions,
// live subscription count, monitor ingest counters, and (when a slicing
// controller is attached) per-agent slice state. It is a read-only view
// over state the server, monitor, and slicing controller already hold —
// Snapshot takes no locks beyond theirs and is safe to call from the
// obs stream hub's flush tick.
type Topology struct {
	srv        *server.Server
	mon        *Monitor
	slicing    *SlicingController
	policies   *a1.Store
	federation func() any
}

// TopologyOption configures a Topology.
type TopologyOption func(*Topology)

// TopoWithMonitor includes the monitor's ingest counters and attached
// store occupancy in snapshots.
func TopoWithMonitor(m *Monitor) TopologyOption {
	return func(t *Topology) { t.mon = m }
}

// TopoWithSlicing includes per-agent slice status in snapshots.
func TopoWithSlicing(sc *SlicingController) TopologyOption {
	return func(t *Topology) { t.slicing = sc }
}

// TopoWithA1 includes the A1 policy plane in snapshots: the active
// policy count and each policy's current SLA verdict, so /topology.json
// shows the closed loop next to the slice state it steers.
func TopoWithA1(st *a1.Store) TopologyOption {
	return func(t *Topology) { t.policies = st }
}

// TopoWithFederation includes a federation-tier summary in snapshots —
// the root controller's shard registry (live/dead shards, per-shard
// agent sets, failover count). fn is typically federation.Root.Snapshot;
// the indirection keeps ctrl decoupled from the federation package.
func TopoWithFederation(fn func() any) TopologyOption {
	return func(t *Topology) { t.federation = fn }
}

// NewTopology builds a topology view over a server.
func NewTopology(srv *server.Server, opts ...TopologyOption) *Topology {
	t := &Topology{srv: srv}
	for _, o := range opts {
		o(t)
	}
	return t
}

// TopologyAgent is one connected agent in a snapshot.
type TopologyAgent struct {
	ID        int      `json:"id"`
	Node      string   `json:"node"`
	Addr      string   `json:"addr"`
	Functions []string `json:"functions"`
}

// TopologySlice is one agent's slice state in a snapshot.
type TopologySlice struct {
	Agent  int               `json:"agent"`
	Algo   string            `json:"algo"`
	Slices []sm.SliceParams  `json:"slices,omitempty"`
	UEs    []sm.UESliceAssoc `json:"ues,omitempty"`
}

// TopologySLA is one A1 policy's live verdict in a snapshot.
type TopologySLA struct {
	Policy  string   `json:"policy"`
	Agent   int      `json:"agent"`
	Slices  []uint32 `json:"slices,omitempty"` // slice IDs under targets
	Status  string   `json:"status"`
	Reason  string   `json:"reason,omitempty"`
	Version uint64   `json:"version"`
}

// TopologySnapshot is one point-in-time view of controller state.
type TopologySnapshot struct {
	TS            int64           `json:"ts"`
	Agents        []TopologyAgent `json:"agents"`
	Subscriptions int             `json:"subscriptions"`
	Indications   uint64          `json:"indications,omitempty"`
	BytesIn       uint64          `json:"bytes_in,omitempty"`
	Series        int             `json:"series,omitempty"`
	Slices        []TopologySlice `json:"slices,omitempty"`
	A1Policies    int             `json:"a1_policies,omitempty"`
	SLA           []TopologySLA   `json:"sla,omitempty"`
	Federation    any             `json:"federation,omitempty"`
}

// fnNames maps the shipped service-model IDs to short names; unknown
// functions render as "fn<id>".
var fnNames = map[uint16]string{
	sm.IDHelloWorld:  "hello",
	sm.IDMACStats:    "mac",
	sm.IDRLCStats:    "rlc",
	sm.IDPDCPStats:   "pdcp",
	sm.IDSliceCtrl:   "slice",
	sm.IDTrafficCtrl: "tc",
	sm.IDKPM:         "kpm",
	sm.IDRRC:         "rrc",
}

// FnName returns the short name for a RAN function ID.
func FnName(id uint16) string {
	if n, ok := fnNames[id]; ok {
		return n
	}
	return "fn" + itoa(uint64(id))
}

// itoa avoids pulling strconv into the hot snapshot path dependencies;
// topology snapshots are cold, this is just a tiny decimal formatter.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Snapshot materializes the current topology.
func (t *Topology) Snapshot() TopologySnapshot {
	snap := TopologySnapshot{
		TS:            time.Now().UnixNano(),
		Subscriptions: t.srv.NumSubscriptions(),
	}
	for _, ai := range t.srv.Agents() {
		ta := TopologyAgent{
			ID:   int(ai.ID),
			Node: ai.NodeID.String(),
			Addr: ai.Addr,
		}
		for _, fn := range ai.Functions {
			ta.Functions = append(ta.Functions, FnName(fn.ID))
		}
		snap.Agents = append(snap.Agents, ta)
	}
	sort.Slice(snap.Agents, func(i, j int) bool { return snap.Agents[i].ID < snap.Agents[j].ID })
	if t.mon != nil {
		snap.Indications, snap.BytesIn = t.mon.Counters()
		snap.Series = t.mon.TSDB().NumSeries()
	}
	if t.slicing != nil {
		for _, a := range snap.Agents {
			if st := t.slicing.SliceStatus(server.AgentID(a.ID)); st != nil {
				snap.Slices = append(snap.Slices, TopologySlice{Agent: a.ID, Algo: st.Algo, Slices: st.Slices, UEs: st.UEs})
			}
		}
	}
	if t.policies != nil {
		for _, st := range t.policies.List() {
			sla := TopologySLA{
				Policy:  st.Policy.ID,
				Agent:   st.Policy.Agent,
				Status:  string(st.Status),
				Reason:  st.Reason,
				Version: st.Policy.Version,
			}
			for _, tgt := range st.Policy.Targets {
				sla.Slices = append(sla.Slices, tgt.SliceID)
			}
			snap.SLA = append(snap.SLA, sla)
		}
		snap.A1Policies = len(snap.SLA)
	}
	if t.federation != nil {
		snap.Federation = t.federation()
	}
	return snap
}
