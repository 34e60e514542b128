package ctrl

import (
	"fmt"
	"sync"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/nvs"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/transport"
)

// VirtCtrl is the recursive virtualization controller of §6.2
// (Fig. 14a, Table 5): it terminates the shared infrastructure's agents
// on its southbound (server library), and reuses the agent library as
// its northbound communication interface to recursively expose the E2
// interface to multiple guest (tenant) controllers. Its iApps implement
// the SM-specific virtualization layer:
//
//   - SC SM virtualization: tenants configure sub-slices within a
//     virtual base station of 100 % resources; shares are scaled by the
//     tenant's SLA per Appendix B and slice IDs are remapped into
//     disjoint physical intervals, so no tenant can exceed its SLA and
//     conflicts are impossible by construction.
//   - MAC statistics partitioning: each tenant only sees its own
//     subscribers' UEs.
type VirtCtrl struct {
	srv   *server.Server
	north *agent.Agent
	proxy *Proxy

	scheme  sm.Scheme
	tenants []Tenant
	virt    []*nvs.Virtualizer

	mu sync.Mutex
	// virtSlices holds each tenant's current virtual slice set.
	virtSlices [][]nvs.Config
}

// Tenant is one guest operator of the shared infrastructure.
type Tenant struct {
	Name string
	// SLA is the operator's physical resource share in (0,1].
	SLA float64
	// Subscribers lists the RNTIs of the tenant's UEs.
	Subscribers map[uint16]bool
}

// owns reports whether the tenant serves the UE.
func (t Tenant) owns(rnti uint16) bool { return t.Subscribers[rnti] }

// VirtConfig parameterizes a VirtCtrl.
type VirtConfig struct {
	Scheme    sm.Scheme
	E2Scheme  e2ap.Scheme
	Transport transport.Kind
	Tenants   []Tenant
	// SouthAddr is where infrastructure agents connect.
	SouthAddr string
	// Resilience configures the southbound server's keepalive and
	// subscription retention: an infrastructure agent that drops and
	// redials within RetainFor is re-admitted under its old AgentID and
	// every tenant-mapped south subscription is replayed, so tenant
	// streams survive transient south faults without the tenants ever
	// noticing. Nil keeps the pre-resilience behavior.
	Resilience *resilience.Config
}

// NewVirtCtrl starts the virtualization controller. Tenant controllers
// are attached afterwards with ConnectTenant, in tenant order.
func NewVirtCtrl(cfg VirtConfig) (*VirtCtrl, string, error) {
	if len(cfg.Tenants) == 0 {
		return nil, "", fmt.Errorf("ctrl: no tenants")
	}
	total := 0.0
	v := &VirtCtrl{
		scheme:     cfg.Scheme,
		tenants:    cfg.Tenants,
		virtSlices: make([][]nvs.Config, len(cfg.Tenants)),
	}
	for i, t := range cfg.Tenants {
		vr, err := nvs.NewVirtualizer(uint32(i), t.SLA)
		if err != nil {
			return nil, "", fmt.Errorf("ctrl: tenant %s: %w", t.Name, err)
		}
		v.virt = append(v.virt, vr)
		total += t.SLA
	}
	if total > 1+1e-9 {
		return nil, "", fmt.Errorf("ctrl: tenant SLAs total %.3f > 1", total)
	}

	v.srv = server.New(server.Config{Scheme: cfg.E2Scheme, Transport: cfg.Transport, Resilience: cfg.Resilience})
	v.north = agent.New(agent.Config{
		NodeID: e2ap.GlobalE2NodeID{
			PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: e2ap.NodeENB, NodeID: 8000,
		},
		Scheme:    cfg.E2Scheme,
		Transport: cfg.Transport,
	})
	var err error
	v.proxy, err = NewProxy(v.srv, v.north,
		ProxyFn{
			Def:     e2ap.RANFunctionItem{ID: sm.IDSliceCtrl, Revision: 1, OID: "virt-sc"},
			Route:   v.route,
			Rewrite: v.virtualizeStatus,
			Control: v.sliceControl,
		},
		ProxyFn{
			Def:     e2ap.RANFunctionItem{ID: sm.IDMACStats, Revision: 1, OID: "virt-mac"},
			Route:   v.route,
			Rewrite: v.partitionMAC,
		})
	if err != nil {
		return nil, "", err
	}
	// Registered after the proxy's hooks, so the proxy has recorded the
	// agent by the time onSouthAgent pushes slices to it.
	v.srv.OnAgentConnect(v.onSouthAgent)
	addr, err := v.srv.Start(cfg.SouthAddr)
	if err != nil {
		return nil, "", err
	}
	return v, addr, nil
}

// slicedAgent matches the infrastructure agent: the one exposing the
// SC SM.
func slicedAgent(info server.AgentInfo) bool { return info.HasFunction(sm.IDSliceCtrl) }

// route sends every tenant subscription to the infrastructure agent.
func (v *VirtCtrl) route(ctrl agent.ControllerID, trigger []byte) (func(server.AgentInfo) bool, []byte, error) {
	if int(ctrl) >= len(v.tenants) {
		return nil, nil, fmt.Errorf("ctrl: unknown tenant %d", ctrl)
	}
	return slicedAgent, trigger, nil
}

// ConnectTenant attaches tenant i's guest controller (connect in tenant
// order: the agent library's controller IDs must line up with tenants).
func (v *VirtCtrl) ConnectTenant(i int, ctrlAddr string) error {
	if i < 0 || i >= len(v.tenants) {
		return fmt.Errorf("ctrl: no tenant %d", i)
	}
	id, err := v.north.Connect(ctrlAddr)
	if err != nil {
		return err
	}
	if int(id) != i {
		return fmt.Errorf("ctrl: tenant %d got controller id %d; connect tenants in order", i, id)
	}
	return nil
}

// Close tears the virtualization controller down.
func (v *VirtCtrl) Close() error {
	v.north.Close()
	return v.srv.Close()
}

// onSouthAgent installs the initial physical slice configuration: one
// default slice per tenant at its SLA, with every subscriber associated,
// so inter-tenant isolation holds before tenants configure anything.
func (v *VirtCtrl) onSouthAgent(info server.AgentInfo) {
	if !slicedAgent(info) {
		return
	}
	v.mu.Lock()
	for i := range v.tenants {
		if v.virtSlices[i] == nil {
			v.virtSlices[i] = []nvs.Config{{ID: 0, Kind: nvs.KindCapacity, Capacity: 1.0, UESched: "pf"}}
		}
	}
	v.mu.Unlock()
	_ = v.pushPhysical()
	v.syncAssociations()
}

// pushPhysical recomputes the combined physical slice set from all
// tenants' virtual sets and installs it on the infrastructure.
func (v *VirtCtrl) pushPhysical() error {
	south, ok := v.proxy.south(slicedAgent)
	if !ok {
		return errNoSouth
	}
	v.mu.Lock()
	var phys []nvs.Config
	for i := range v.tenants {
		p, err := v.virt[i].ToPhysical(v.virtSlices[i])
		if err != nil {
			v.mu.Unlock()
			return err
		}
		phys = append(phys, p...)
	}
	v.mu.Unlock()
	ctl := &sm.SliceControl{Op: sm.OpConfigureSlices, Slices: sm.ParamsFromNVS(phys)}
	_, err := v.srv.ControlWait(south, sm.IDSliceCtrl, nil, sm.EncodeSliceControl(v.scheme, ctl))
	return err
}

// syncAssociations points every subscriber at its tenant's default
// physical slice (virtual slice 0).
func (v *VirtCtrl) syncAssociations() {
	south, ok := v.proxy.south(slicedAgent)
	if !ok {
		return
	}
	v.mu.Lock()
	type assoc struct {
		rnti uint16
		phys uint32
	}
	var all []assoc
	for i, t := range v.tenants {
		pid, err := v.virt[i].PhysicalID(0)
		if err != nil {
			continue
		}
		for rnti := range t.Subscribers {
			all = append(all, assoc{rnti, pid})
		}
	}
	v.mu.Unlock()
	for _, a := range all {
		ctl := &sm.SliceControl{Op: sm.OpAssociateUE, RNTI: a.rnti, SliceID: a.phys}
		_, _ = v.srv.ControlWait(south, sm.IDSliceCtrl, nil, sm.EncodeSliceControl(v.scheme, ctl))
	}
}

// --- SC SM virtualization iApp ---

// virtualizeStatus filters and rescales a physical slice status report
// into the tenant's virtual view.
func (v *VirtCtrl) virtualizeStatus(ctrl agent.ControllerID, payload []byte) ([]byte, error) {
	st, err := sm.DecodeSliceStatus(payload)
	if err != nil {
		return nil, err
	}
	tenant := int(ctrl)
	phys := sm.ToNVS(st.Slices)
	virt := v.virt[tenant].ToVirtual(phys)
	out := &sm.SliceStatus{Algo: st.Algo, Slices: sm.ParamsFromNVS(virt)}
	for _, ua := range st.UEs {
		if !v.tenants[tenant].owns(ua.RNTI) {
			continue
		}
		vid, ok := v.virt[tenant].VirtualID(ua.SliceID)
		if !ok {
			continue
		}
		out.UEs = append(out.UEs, sm.UESliceAssoc{RNTI: ua.RNTI, SliceID: vid})
	}
	return sm.EncodeSliceStatus(v.scheme, out), nil
}

// sliceControl applies a tenant's virtual slice control.
func (v *VirtCtrl) sliceControl(ctrl agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
	tenant := int(ctrl)
	if tenant >= len(v.tenants) {
		return nil, fmt.Errorf("ctrl: unknown tenant %d", tenant)
	}
	c, err := sm.DecodeSliceControl(req.Payload)
	if err != nil {
		return nil, err
	}
	switch c.Op {
	case sm.OpConfigureSlices:
		virt := sm.ToNVS(c.Slices)
		// Virtual admission control happens inside ToPhysical: a tenant
		// can never occupy more than its SLA.
		if _, err := v.virt[tenant].ToPhysical(virt); err != nil {
			return nil, err
		}
		v.mu.Lock()
		v.virtSlices[tenant] = virt
		v.mu.Unlock()
		if err := v.pushPhysical(); err != nil {
			return nil, err
		}
		return nil, nil
	case sm.OpAssociateUE:
		if !v.tenants[tenant].owns(c.RNTI) {
			return nil, fmt.Errorf("ctrl: UE %d is not tenant %s's subscriber", c.RNTI, v.tenants[tenant].Name)
		}
		pid, err := v.virt[tenant].PhysicalID(c.SliceID)
		if err != nil {
			return nil, err
		}
		south, ok := v.proxy.south(slicedAgent)
		if !ok {
			return nil, errNoSouth
		}
		ctl := &sm.SliceControl{Op: sm.OpAssociateUE, RNTI: c.RNTI, SliceID: pid}
		_, err = v.srv.ControlWait(south, sm.IDSliceCtrl, nil, sm.EncodeSliceControl(v.scheme, ctl))
		return nil, err
	case sm.OpDisableSlicing:
		return nil, fmt.Errorf("ctrl: tenants cannot disable shared-infrastructure slicing")
	default:
		return nil, fmt.Errorf("ctrl: unknown slice op %d", c.Op)
	}
}

// --- MAC statistics partitioning iApp ---

// partitionMAC keeps only the tenant's subscribers in a MAC report: "the
// MAC statistics SM is sliced by only revealing UEs to a controller
// which are among the respective operator's subscribers."
func (v *VirtCtrl) partitionMAC(ctrl agent.ControllerID, payload []byte) ([]byte, error) {
	rep, err := sm.DecodeMACReport(payload)
	if err != nil {
		return nil, err
	}
	part := &sm.MACReport{CellTimeMS: rep.CellTimeMS}
	for _, u := range rep.UEs {
		if v.tenants[ctrl].owns(u.RNTI) {
			part.UEs = append(part.UEs, u)
		}
	}
	return sm.EncodeMACReport(v.scheme, part), nil
}
