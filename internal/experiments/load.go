package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/flexran"
	"flexric/internal/metrics"
	"flexric/internal/oranric"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/transport"
)

// The CPU figures (Figs. 8a, 8b and 9b) load a controller with dummy
// agents that each export a 32-UE MAC report per millisecond. Every
// compared controller is a loadRig, and one driver ticks a rig's agents:
// the agents keep no goroutine or ticker of their own for sending.

// loadRig is one compared controller under dummy-agent load: dial
// connects its agent id, subscribe (when set) runs once all agents are
// dialled, and flowing holds once the controller consumes their reports.
type loadRig struct {
	name      string
	agents    int
	dial      func(id uint64) (*DummyAgent, error)
	subscribe func() error
	flowing   func() bool
	senders   []*DummyAgent
	closers
}

// loadWarmup is driven after a rig's reports flow and before it is
// measured.
const loadWarmup = 25 * time.Millisecond

// drive ticks every agent of r once per millisecond for d, or until done
// (when not nil) holds.
func (r *loadRig) drive(d time.Duration, done func() bool) {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for end := time.Now().Add(d); time.Now().Before(end); <-t.C {
		if done != nil && done() {
			return
		}
		for _, s := range r.senders {
			s.tick()
		}
	}
}

// up dials r's agents, subscribes and drives them until their reports
// flow.
func (r *loadRig) up() error {
	for id := uint64(1); id <= uint64(r.agents); id++ {
		s, err := r.dial(id)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		r.senders = append(r.senders, s)
		r.add(s.Close)
	}
	if r.subscribe != nil {
		if err := r.subscribe(); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	if r.drive(waitShort, r.flowing); !r.flowing() {
		return fmt.Errorf("%s: reports not flowing", r.name)
	}
	return nil
}

// measure is the sequential protocol of Figs. 8a and 9b: the heap base,
// then the agents, until their reports flow, a warm-up, the normalized
// CPU % over d and the controller state grown since the base, in MB. It
// closes r.
func (r *loadRig) measure(d time.Duration) (cpu, mb float64, err error) {
	defer r.close()
	base := metrics.HeapInUse()
	if err := r.up(); err != nil {
		return 0, 0, err
	}
	r.drive(loadWarmup, nil)
	m := metrics.StartCPU()
	r.drive(d, nil)
	cpu = m.NormalizedPercent()
	// GC can shrink the heap below the base.
	return cpu, metrics.MB(max(metrics.HeapInUse(), base) - base), nil
}

// flexricRig is the FlexRIC controller of Figs. 8 and 9b: the server
// library plus a raw-storing MAC monitor, fed by DummyAgents.
func flexricRig(e2s e2ap.Scheme, sms sm.Scheme, agents int) (*loadRig, error) {
	srv, addr, err := StartServer(e2s)
	if err != nil {
		return nil, err
	}
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: sms, PeriodMS: 1, Layers: ctrl.MonMAC})
	r := &loadRig{
		name:   fmt.Sprintf("flexric %s/%d", e2s, agents),
		agents: agents,
		dial: func(id uint64) (*DummyAgent, error) {
			return StartDummyAgent(id, addr, e2s, sms, 32)
		},
		flowing: func() bool {
			n, _ := mon.Counters()
			return n > uint64(agents*10)
		},
	}
	r.add(srv.Close)
	return r, nil
}

// flexranRig is the FlexRAN controller of Fig. 8a: the controller and
// its RIB plus an application polling it every 1 ms, fed by FlexRAN
// dummy agents. They report every tick unasked, so no stats request is
// sent.
func flexranRig(agents int) (*loadRig, error) {
	fc, addr, err := flexran.NewController("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	stop, polled := make(chan struct{}), make(chan uint64, 1)
	go func() { polled <- fc.PollLoop(time.Millisecond, stop) }()
	r := &loadRig{
		name:    "flexran",
		agents:  agents,
		dial:    func(id uint64) (*DummyAgent, error) { return dialFlexRANDummy(id, addr, 32) },
		flowing: func() bool { return len(fc.Poll()) == agents },
	}
	r.add(fc.Close)
	r.add(func() error { close(stop); <-polled; return nil })
	return r, nil
}

// oranRig is the O-RAN RIC of Fig. 9b: E2 termination, RMR and a stats
// xApp, fed by DummyAgents in O-RAN's standard encoding (ASN.1 on both
// levels).
func oranRig(agents int) (*loadRig, *oranric.RIC, error) {
	ric, err := oranric.Start("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	r := &loadRig{
		name:   "o-ran",
		agents: agents,
		dial: func(id uint64) (*DummyAgent, error) {
			return StartDummyAgent(id, ric.Addr(), e2ap.SchemeASN, sm.SchemeASN, 32)
		},
		subscribe: func() error {
			// The xApp's decode is the O-RAN work being measured.
			x := ric.DeployXApp("stats", oranric.XAppCallbacks{
				OnIndication: func(_ int, ind *e2ap.Indication) { _, _ = sm.DecodeMACReport(ind.Payload) },
			})
			if !WaitUntil(waitShort, func() bool { return len(ric.Agents()) == agents }) {
				return fmt.Errorf("agents missing")
			}
			for _, id := range ric.Agents() {
				if err := x.Subscribe(id, sm.IDMACStats,
					sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}),
					[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}}); err != nil {
					return err
				}
			}
			return nil
		},
		flowing: func() bool {
			_, xd := ric.DoubleDecodes()
			return xd > uint64(agents*10)
		},
	}
	r.add(ric.Close)
	return r, ric, nil
}

// DummyAgent is the §5.3 load generator: a test agent "not connected to
// any base station" that exports the statistics of a cell. Every tick
// sends the report next returns, unless it is empty.
type DummyAgent struct {
	tc   transport.Conn
	next func() []byte
}

func (d *DummyAgent) tick() {
	if w := d.next(); len(w) > 0 {
		_ = d.tc.Send(w)
	}
}

// Close disconnects the agent.
func (d *DummyAgent) Close() error { return d.tc.Close() }

// StartDummyAgent connects an E2 dummy agent that reports nUE UEs to a
// controller. To measure the *controller's* cost (the paper runs agents
// and controller in separate processes), it pre-encodes its indication
// once per subscription and every tick replays the same wire bytes — its
// per-message cost is a single send, identical across encoding schemes,
// so CPU differences between runs are attributable to the receiving
// controller. A receive loop answers subscription requests; nothing in
// the figures deletes one.
func StartDummyAgent(nodeID uint64, controller string, e2s e2ap.Scheme, sms sm.Scheme, nUE int) (*DummyAgent, error) {
	tc, err := transport.Dial(transport.KindSCTPish, controller)
	if err != nil {
		return nil, err
	}
	dec, enc := e2ap.MustCodec(e2s), e2ap.MustCodec(e2s)
	wire, err := enc.Encode(&e2ap.SetupRequest{
		TransactionID: 1,
		NodeID:        station.Node(e2ap.NodeENB, nodeID),
		RANFunctions:  []e2ap.RANFunctionItem{{ID: sm.IDMACStats, Revision: 1, OID: "dummy-mac"}},
	})
	if err == nil {
		err = tc.Send(wire)
	}
	if err == nil {
		wire, err = tc.Recv(nil)
	}
	var pdu e2ap.PDU
	if err == nil {
		pdu, err = dec.Decode(wire)
	}
	if _, ok := pdu.(*e2ap.SetupResponse); err == nil && !ok {
		err = fmt.Errorf("rejected: %s", pdu.MsgType())
	}
	if err != nil {
		tc.Close()
		return nil, fmt.Errorf("dummy setup: %w", err)
	}

	var ind atomic.Pointer[[]byte] // empty until subscribed
	ind.Store(new([]byte))
	go func() {
		for {
			wire, err := tc.Recv(nil)
			if err != nil {
				return
			}
			pdu, err := dec.Decode(wire)
			req, ok := pdu.(*e2ap.SubscriptionRequest)
			if err != nil || !ok {
				continue
			}
			w, err := enc.Encode(&e2ap.Indication{RequestID: req.RequestID, RANFunctionID: req.RANFunctionID,
				ActionID: 1, SN: 1, Payload: syntheticMACReport(sms, nUE)})
			if err != nil {
				continue
			}
			w = append([]byte(nil), w...)
			ind.Store(&w)
			if resp, err := enc.Encode(&e2ap.SubscriptionResponse{RequestID: req.RequestID,
				RANFunctionID: req.RANFunctionID, Admitted: []uint8{1}}); err == nil {
				_ = tc.Send(resp)
			}
		}
	}()
	return &DummyAgent{tc: tc, next: func() []byte { return *ind.Load() }}, nil
}

// syntheticMACReport builds the nUE-UE report payload.
func syntheticMACReport(sms sm.Scheme, nUE int) []byte {
	rep := &sm.MACReport{CellTimeMS: 1}
	for i := 0; i < nUE; i++ {
		rep.UEs = append(rep.UEs, sm.MACUEEntry{RNTI: uint16(i + 1), CQI: 15, MCS: 28,
			RBsUsed: 25000, TxBits: 16_000_000, ThroughputBps: 16e6})
	}
	return sm.EncodeMACReport(sms, rep)
}

// dialFlexRANDummy connects a FlexRAN-protocol dummy agent that sends a
// fresh all-layer stats report of nUE UEs every tick. It never reads:
// the one message its controller could send it is a stats request, and
// it reports unasked.
func dialFlexRANDummy(bsID uint64, addr string, nUE int) (*DummyAgent, error) {
	tc, err := transport.Dial(transport.KindSCTPish, addr)
	if err != nil {
		return nil, err
	}
	wire, err := flexran.Encode(flexran.MsgHello, &flexran.Hello{BSID: bsID})
	if err == nil {
		err = tc.Send(wire)
	}
	if err != nil {
		tc.Close()
		return nil, err
	}
	var seq uint64
	return &DummyAgent{tc: tc, next: func() []byte {
		seq++
		rep := &flexran.StatsReport{BSID: bsID, TimeMS: int64(seq)}
		for i := 0; i < nUE; i++ {
			rep.UEs = append(rep.UEs, flexran.UEStats{RNTI: uint16(i + 1), CQI: 15, MCS: 28,
				RBsUsed: seq * 25, MACTxBits: seq * 16000})
		}
		wire, _ := flexran.Encode(flexran.MsgStatsReport, rep)
		return wire
	}}, nil
}
