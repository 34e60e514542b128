package sm

import (
	"fmt"
	"sync"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
)

// This file implements the agent-side RAN functions for the shipped SMs:
// the bundle of "pre-defined RAN functions that implement a set of SMs"
// of §3, bound to the simulated user plane. Each function implements
// agent.RANFunction; periodic reporters additionally implement Ticker and
// are driven by the base station's slot loop.

// Ticker is implemented by RAN functions that emit periodic reports;
// the base station integration calls Tick once per TTI.
type Ticker interface {
	Tick(now int64)
}

// TickAll drives every Ticker in fns.
func TickAll(fns []agent.RANFunction, now int64) {
	for _, fn := range fns {
		if t, ok := fn.(Ticker); ok {
			t.Tick(now)
		}
	}
}

// Visibility gates which UEs a controller may see (§4.1.2); *agent.Agent
// implements it. A nil Visibility exposes everything.
type Visibility interface {
	UEVisible(ctrl agent.ControllerID, rnti uint16) bool
}

func visible(v Visibility, ctrl agent.ControllerID, rnti uint16) bool {
	if v == nil {
		return true
	}
	return v.UEVisible(ctrl, rnti)
}

type subKey struct {
	ctrl agent.ControllerID
	req  e2ap.RequestID
}

type subState struct {
	ctrl     agent.ControllerID
	periodMS int64
	nextDue  int64
	// emit sends one payload of the report being built; flush ends the
	// report. Both are bound once, at subscription time, so a tick
	// allocates no closure.
	emit  func(payload []byte)
	flush func()
}

// bind wires emit and flush to tx. A sender that batches gets the whole
// report (one payload per UE shard) coalesced into a single transport
// operation; any other sender gets one send per payload.
func (st *subState) bind(tx agent.IndicationSender, actionID uint8) {
	if bs, ok := tx.(agent.BatchIndicationSender); ok {
		b := bs.NewBatch()
		st.emit = func(payload []byte) { _ = b.Add(actionID, e2ap.IndicationReport, nil, payload) }
		st.flush = func() { _ = b.Flush() }
		return
	}
	st.emit = func(payload []byte) { _ = tx.SendIndication(actionID, e2ap.IndicationReport, nil, payload) }
	st.flush = func() {}
}

// BuildFunc produces the indication payload(s) of one report for one
// controller, handing each to emit. A payload is valid only during the
// emit call — emit encodes it into the outgoing message and retains
// nothing — so a builder may reuse one buffer for every payload. Builds
// of one StatsFunction never run concurrently, so that buffer and any
// other scratch can live in the builder's closure.
type BuildFunc func(ctrl agent.ControllerID, now int64, emit func(payload []byte))

// StatsFunction is a generic periodic-report RAN function: the shared
// machinery of the MAC/RLC/PDCP/TC/KPM monitoring SMs.
type StatsFunction struct {
	def   e2ap.RANFunctionItem
	build BuildFunc

	mu   sync.Mutex
	subs map[subKey]*subState

	// tickMu serializes Tick. It guards dues and the subscriptions'
	// batches, and is what lets builders keep scratch across ticks.
	tickMu sync.Mutex
	dues   []*subState
}

// NewStatsFunction returns a periodic reporter with the given identity.
func NewStatsFunction(id uint16, oid string, build BuildFunc) *StatsFunction {
	return &StatsFunction{
		def:   e2ap.RANFunctionItem{ID: id, Revision: 1, OID: oid},
		build: build,
		subs:  make(map[subKey]*subState),
	}
}

// Definition implements agent.RANFunction.
func (f *StatsFunction) Definition() e2ap.RANFunctionItem { return f.def }

// OnSubscription implements agent.RANFunction: the event trigger carries
// the report period.
func (f *StatsFunction) OnSubscription(ctrl agent.ControllerID, req *e2ap.SubscriptionRequest, tx agent.IndicationSender) error {
	trig, err := DecodeTrigger(req.EventTrigger)
	if err != nil {
		return err
	}
	if trig.PeriodMS == 0 {
		return fmt.Errorf("sm: zero report period")
	}
	actionID := uint8(0)
	if len(req.Actions) > 0 {
		actionID = req.Actions[0].ID
	}
	st := &subState{ctrl: ctrl, periodMS: int64(trig.PeriodMS)}
	st.bind(tx, actionID)
	f.mu.Lock()
	f.subs[subKey{ctrl, req.RequestID}] = st
	f.mu.Unlock()
	return nil
}

// OnSubscriptionDelete implements agent.RANFunction.
func (f *StatsFunction) OnSubscriptionDelete(ctrl agent.ControllerID, req *e2ap.SubscriptionDeleteRequest) error {
	key := subKey{ctrl, req.RequestID}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.subs[key]; !ok {
		return fmt.Errorf("sm: unknown subscription %v", req.RequestID)
	}
	delete(f.subs, key)
	return nil
}

// OnControl implements agent.RANFunction: monitoring SMs have no control
// endpoint.
func (f *StatsFunction) OnControl(agent.ControllerID, *e2ap.ControlRequest) ([]byte, error) {
	return nil, fmt.Errorf("sm: %d is a monitoring SM", f.def.ID)
}

// Tick implements Ticker: emits due reports.
func (f *StatsFunction) Tick(now int64) {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	f.mu.Lock()
	for _, st := range f.subs {
		if now >= st.nextDue {
			st.nextDue = now + st.periodMS
			f.dues = append(f.dues, st)
		}
	}
	f.mu.Unlock()
	for _, st := range f.dues {
		f.build(st.ctrl, now, st.emit)
		st.flush()
	}
	clear(f.dues) // do not pin a deleted subscription until it is overwritten
	f.dues = f.dues[:0]
}

// Subscriptions reports the number of active subscriptions.
func (f *StatsFunction) Subscriptions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// newShardStats returns the periodic reporter shared by the MAC, RLC and
// PDCP monitoring SMs. Reports are built per UE shard — each shard's
// visible UEs become one indication payload (same wire format, same
// CellTimeMS) so large cells stream as a batch of bounded messages
// instead of one monolithic report; a cell with no visible UEs still
// emits one empty report as a heartbeat. entry reads one UE's counters.
// rep is the report every payload encodes, with its cell time at
// cellTime and its entry list at ues; it, the encode buffer and the
// walkers that encode it are reused from report to report.
func newShardStats[E any](id uint16, oid string, cell *ran.Cell, scheme Scheme, vis Visibility,
	rep message, cellTime *int64, ues *[]E, entry func(u *ran.UE, now int64) E) *StatsFunction {
	var (
		buf []byte
		ws  walkers
	)
	return NewStatsFunction(id, oid, func(ctrl agent.ControllerID, now int64, emit func([]byte)) {
		*cellTime = now
		sent := false
		for si := 0; si < cell.NumShards(); si++ {
			*ues = (*ues)[:0]
			cell.WithShardUEs(si, func(shard []*ran.UE) {
				for _, u := range shard {
					if visible(vis, ctrl, u.RNTI) {
						*ues = append(*ues, entry(u, now))
					}
				}
			})
			if len(*ues) > 0 {
				buf = ws.append(buf[:0], scheme, rep)
				emit(buf)
				sent = true
			}
		}
		if !sent {
			buf = ws.append(buf[:0], scheme, rep)
			emit(buf)
		}
	})
}

// NewMACStats returns the MAC monitoring SM bound to a cell, reporting
// per UE shard (see newShardStats).
func NewMACStats(cell *ran.Cell, scheme Scheme, vis Visibility) *StatsFunction {
	var r MACReport
	return newShardStats(IDMACStats, "1.3.6.1.4.1.53148.1.2.2.142", cell, scheme, vis, &r, &r.CellTimeMS, &r.UEs,
		func(u *ran.UE, _ int64) MACUEEntry {
			m := u.MACStats()
			return MACUEEntry{
				RNTI:          m.RNTI,
				CQI:           uint8(m.CQI),
				MCS:           uint8(m.MCS),
				RBsUsed:       m.RBsUsed,
				TxBits:        m.TxBits,
				ThroughputBps: m.ThroughputBps,
			}
		})
}

// NewRLCStats returns the RLC monitoring SM bound to a cell, reporting
// per UE shard (see newShardStats).
func NewRLCStats(cell *ran.Cell, scheme Scheme, vis Visibility) *StatsFunction {
	var r RLCReport
	return newShardStats(IDRLCStats, "1.3.6.1.4.1.53148.1.2.2.143", cell, scheme, vis, &r, &r.CellTimeMS, &r.UEs,
		func(u *ran.UE, now int64) RLCUEEntry {
			st := u.RLC().Stats()
			return RLCUEEntry{
				RNTI:        u.RNTI,
				TxPackets:   st.TxPackets,
				TxBytes:     st.TxBytes,
				RxPackets:   st.RxPackets,
				RxBytes:     st.RxBytes,
				DropPackets: st.DropPackets,
				DropBytes:   st.DropBytes,
				BufferBytes: uint64(st.BufferBytes),
				BufferPkts:  uint64(st.BufferPkts),
				SojournMS:   u.RLC().OldestSojournMS(now),
			}
		})
}

// NewPDCPStats returns the PDCP monitoring SM bound to a cell, reporting
// per UE shard (see newShardStats).
func NewPDCPStats(cell *ran.Cell, scheme Scheme, vis Visibility) *StatsFunction {
	var r PDCPReport
	return newShardStats(IDPDCPStats, "1.3.6.1.4.1.53148.1.2.2.144", cell, scheme, vis, &r, &r.CellTimeMS, &r.UEs,
		func(u *ran.UE, _ int64) PDCPUEEntry {
			st := u.PDCPStats()
			return PDCPUEEntry{RNTI: u.RNTI, TxPackets: st.TxPackets, TxBytes: st.TxBytes}
		})
}

// NewTCStats returns the TC monitoring SM (one report per UE per period).
func NewTCStats(cell *ran.Cell, scheme Scheme, vis Visibility) *StatsFunction {
	return NewStatsFunction(IDTrafficCtrl+100, "1.3.6.1.4.1.53148.1.2.2.246",
		func(ctrl agent.ControllerID, now int64, emit func([]byte)) {
			// Encoded under the cell lock, sent after it is released.
			var out [][]byte
			cell.WithUEs(func(ues []*ran.UE) {
				for _, u := range ues {
					if !visible(vis, ctrl, u.RNTI) {
						continue
					}
					st := u.TC().Stats()
					rep := &TCReport{
						CellTimeMS: now,
						RNTI:       u.RNTI,
						Active:     st.Mode == "active",
						Pacer:      uint8(st.Pacer),
						Filters:    uint32(st.Filters),
					}
					for _, q := range st.Queues {
						rep.Queues = append(rep.Queues, TCQueueEntry{
							ID:          uint32(q.ID),
							EnqPackets:  q.EnqPackets,
							EnqBytes:    q.EnqBytes,
							DeqPackets:  q.DeqPackets,
							DeqBytes:    q.DeqBytes,
							DropPackets: q.DropPackets,
							BufferBytes: uint64(q.BufferBytes),
							BufferPkts:  uint64(q.BufferPkts),
							SojournMS:   q.SojournMS,
						})
					}
					out = append(out, EncodeTCReport(scheme, rep))
				}
			})
			for _, payload := range out {
				emit(payload)
			}
		})
}

// NewKPM returns an O-RAN-KPM-style SM reporting cell aggregates.
func NewKPM(cell *ran.Cell, scheme Scheme) *StatsFunction {
	return NewStatsFunction(IDKPM, "1.3.6.1.4.1.53148.1.2.2.147",
		func(ctrl agent.ControllerID, now int64, emit func([]byte)) {
			rep := &KPMReport{CellTimeMS: now, GranularityMS: 1}
			nUE := 0.0
			cell.WithUEs(func(ues []*ran.UE) { nUE = float64(len(ues)) })
			rep.Measurements = []KPMMeasurement{
				{Name: "DRB.UEThpDl", Value: float64(cell.TotalTxBits())},
				{Name: "RRC.ConnMean", Value: nUE},
			}
			emit(EncodeKPMReport(scheme, rep))
		})
}

// HWFunction is the Hello-World ping SM: controls are echoed back as
// indications to the controller's active subscription.
type HWFunction struct {
	mu      sync.Mutex
	senders map[agent.ControllerID]agent.IndicationSender
}

// NewHW returns the Hello-World SM.
func NewHW() *HWFunction {
	return &HWFunction{senders: make(map[agent.ControllerID]agent.IndicationSender)}
}

// Definition implements agent.RANFunction.
func (f *HWFunction) Definition() e2ap.RANFunctionItem {
	return e2ap.RANFunctionItem{ID: IDHelloWorld, Revision: 1, OID: "1.3.6.1.4.1.53148.1.2.2.140"}
}

// OnSubscription implements agent.RANFunction.
func (f *HWFunction) OnSubscription(ctrl agent.ControllerID, req *e2ap.SubscriptionRequest, tx agent.IndicationSender) error {
	f.mu.Lock()
	f.senders[ctrl] = tx
	f.mu.Unlock()
	return nil
}

// OnSubscriptionDelete implements agent.RANFunction.
func (f *HWFunction) OnSubscriptionDelete(ctrl agent.ControllerID, req *e2ap.SubscriptionDeleteRequest) error {
	f.mu.Lock()
	delete(f.senders, ctrl)
	f.mu.Unlock()
	return nil
}

// OnControl implements agent.RANFunction: echo the ping as an indication.
func (f *HWFunction) OnControl(ctrl agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
	f.mu.Lock()
	tx := f.senders[ctrl]
	f.mu.Unlock()
	if tx == nil {
		return nil, fmt.Errorf("sm: hw: no subscription from controller %d", ctrl)
	}
	if err := tx.SendIndication(1, e2ap.IndicationReport, req.Header, req.Payload); err != nil {
		return nil, err
	}
	return nil, nil
}

// SliceCtrlFunction is the SC SM bound to a cell.
type SliceCtrlFunction struct {
	*StatsFunction // periodic SliceStatus reports
	cell           *ran.Cell
}

// NewSliceCtrl returns the slicing control SM.
func NewSliceCtrl(cell *ran.Cell, scheme Scheme) *SliceCtrlFunction {
	stats := NewStatsFunction(IDSliceCtrl, "1.3.6.1.4.1.53148.1.2.2.145",
		func(ctrl agent.ControllerID, now int64, emit func([]byte)) {
			st := &SliceStatus{Algo: cell.SliceMode().String(), Slices: ParamsFromNVS(cell.Slices())}
			cell.WithUEs(func(ues []*ran.UE) {
				for _, u := range ues {
					st.UEs = append(st.UEs, UESliceAssoc{RNTI: u.RNTI, SliceID: u.SliceID})
				}
			})
			emit(EncodeSliceStatus(scheme, st))
		})
	return &SliceCtrlFunction{StatsFunction: stats, cell: cell}
}

// OnControl implements agent.RANFunction: apply slice configuration. The
// SM performs admission control so controller requests are conflict-free
// (§4.1.2: "it is the SM ... to perform sufficient admission control").
func (f *SliceCtrlFunction) OnControl(ctrl agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
	c, err := DecodeSliceControl(req.Payload)
	if err != nil {
		return nil, err
	}
	switch c.Op {
	case OpConfigureSlices:
		return nil, f.cell.ConfigureSlices(ToNVS(c.Slices))
	case OpAssociateUE:
		return nil, f.cell.AssociateUE(c.RNTI, c.SliceID)
	case OpDisableSlicing:
		f.cell.DisableSlicing()
		return nil, nil
	default:
		return nil, fmt.Errorf("sm: unknown slice op %d", c.Op)
	}
}

// TCCtrlFunction is the TC SM bound to a cell.
type TCCtrlFunction struct {
	*StatsFunction
	cell   *ran.Cell
	scheme Scheme
}

// NewTCCtrl returns the traffic control SM (control + per-UE reports).
func NewTCCtrl(cell *ran.Cell, scheme Scheme, vis Visibility) *TCCtrlFunction {
	stats := NewTCStats(cell, scheme, vis)
	stats.def = e2ap.RANFunctionItem{ID: IDTrafficCtrl, Revision: 1, OID: "1.3.6.1.4.1.53148.1.2.2.146"}
	return &TCCtrlFunction{StatsFunction: stats, cell: cell, scheme: scheme}
}

// OnControl implements agent.RANFunction: queue/filter/pacer management.
func (f *TCCtrlFunction) OnControl(ctrl agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
	c, err := DecodeTCControl(req.Payload)
	if err != nil {
		return nil, err
	}
	var outcome []byte
	err = f.cell.WithUE(c.RNTI, func(u *ran.UE) error {
		switch c.Op {
		case OpAddQueue:
			q := u.TC().AddQueue()
			outcome = EncodeTCOutcome(f.scheme, &TCOutcome{Queue: uint32(q)})
			return nil
		case OpRemoveQueue:
			return u.TC().RemoveQueue(int(c.Queue), f.cell.Now())
		case OpAddFilter:
			return u.TC().AddFilter(ran.TCFilter{Match: c.Match(), Queue: int(c.Queue)})
		case OpSetPacer:
			u.TC().SetPacer(ran.PacerKind(c.Pacer), int64(c.PacerTargetMS))
			return nil
		default:
			return fmt.Errorf("sm: unknown TC op %d", c.Op)
		}
	})
	return outcome, err
}

// RRCFunction is the RRC UE-notification SM: it emits attach/detach
// events to subscribed controllers.
type RRCFunction struct {
	scheme Scheme

	mu      sync.Mutex
	senders map[subKey]agent.IndicationSender
	vis     Visibility
}

// NewRRC returns the RRC SM and hooks it into the cell's attach events.
func NewRRC(cell *ran.Cell, scheme Scheme, vis Visibility) *RRCFunction {
	f := &RRCFunction{scheme: scheme, senders: make(map[subKey]agent.IndicationSender), vis: vis}
	cell.OnUEAttach(func(ue *ran.UE) {
		f.emit(&RRCEvent{Kind: RRCAttach, RNTI: ue.RNTI, PLMNID: ue.PLMNID, IMSI: ue.IMSI})
	})
	return f
}

// Definition implements agent.RANFunction.
func (f *RRCFunction) Definition() e2ap.RANFunctionItem {
	return e2ap.RANFunctionItem{ID: IDRRC, Revision: 1, OID: "1.3.6.1.4.1.53148.1.2.2.148"}
}

// OnSubscription implements agent.RANFunction.
func (f *RRCFunction) OnSubscription(ctrl agent.ControllerID, req *e2ap.SubscriptionRequest, tx agent.IndicationSender) error {
	f.mu.Lock()
	f.senders[subKey{ctrl, req.RequestID}] = tx
	f.mu.Unlock()
	return nil
}

// OnSubscriptionDelete implements agent.RANFunction.
func (f *RRCFunction) OnSubscriptionDelete(ctrl agent.ControllerID, req *e2ap.SubscriptionDeleteRequest) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := subKey{ctrl, req.RequestID}
	if _, ok := f.senders[key]; !ok {
		return fmt.Errorf("sm: unknown subscription %v", req.RequestID)
	}
	delete(f.senders, key)
	return nil
}

// OnControl implements agent.RANFunction.
func (f *RRCFunction) OnControl(agent.ControllerID, *e2ap.ControlRequest) ([]byte, error) {
	return nil, fmt.Errorf("sm: rrc is a notification SM")
}

func (f *RRCFunction) emit(ev *RRCEvent) {
	payload := EncodeRRCEvent(f.scheme, ev)
	f.mu.Lock()
	type dst struct {
		tx   agent.IndicationSender
		ctrl agent.ControllerID
	}
	var dsts []dst
	for k, tx := range f.senders {
		dsts = append(dsts, dst{tx, k.ctrl})
	}
	f.mu.Unlock()
	for _, d := range dsts {
		if visible(f.vis, d.ctrl, ev.RNTI) {
			_ = d.tx.SendIndication(1, e2ap.IndicationReport, nil, payload)
		}
	}
}
