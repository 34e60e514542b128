package experiments

import (
	"fmt"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/metrics"
	"flexric/internal/oranric"
	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/transport"
)

// Fig. 9: "Comparison of O-RAN RIC and (dockerized) FlexRIC" (§5.4).
// (a) two-hop ping RTT: FlexRIC with a relaying controller (FB/FB and
// ASN/ASN) against the O-RAN pipeline (agent → E2T → xApp).
// (b) the monitoring use case: 10 dummy agents × 32 UEs @1 ms; CPU and
// memory of the whole platform.

// Fig9aRow is one bar group of Fig. 9a.
type Fig9aRow struct {
	System  string // "FB/FB", "ASN/ASN", "O-RAN"
	Payload int
	RTT     RTTStats
}

// Fig9aResult is the Fig. 9a dataset.
type Fig9aResult struct {
	Rows []Fig9aRow
}

// Fig9a reproduces Fig. 9a with n pings per configuration.
func Fig9a(n int, payloads []int) (*Fig9aResult, error) {
	if len(payloads) == 0 {
		payloads = []int{100, 1500}
	}
	res := &Fig9aResult{}

	// FlexRIC two-hop: parent server ← relay ← agent.
	for _, combo := range []EncodingCombo{
		{"FB/FB", e2ap.SchemeFB, sm.SchemeFB},
		{"ASN/ASN", e2ap.SchemeASN, sm.SchemeASN},
	} {
		parent, parentAddr, err := StartServer(combo.E2AP)
		if err != nil {
			return nil, err
		}
		relay, err := ctrl.NewRelay("127.0.0.1:0", parentAddr, combo.E2AP, transport.KindSCTPish,
			[]uint16{sm.IDHelloWorld})
		if err != nil {
			parent.Close()
			return nil, err
		}
		bs, err := station.New(station.Spec{
			Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: combo.E2SM, Controller: relay.SouthAddr(),
			Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: combo.E2AP},
			SMs:   []uint16{sm.IDHelloWorld},
		})
		if err != nil {
			relay.Close()
			parent.Close()
			return nil, err
		}
		ok := WaitUntil(waitShort, func() bool {
			return len(parent.Agents()) == 1 && len(relay.Server().Agents()) == 1
		})
		if !ok {
			bs.Close()
			relay.Close()
			parent.Close()
			return nil, fmt.Errorf("two-hop topology did not form")
		}
		pinger, err := newHWPinger(parent, parent.Agents()[0].ID, combo.E2AP, combo.E2SM)
		if err != nil {
			bs.Close()
			relay.Close()
			parent.Close()
			return nil, err
		}
		for _, size := range payloads {
			payload := make([]byte, size)
			var samples []time.Duration
			for i := 0; i < n+5; i++ {
				rtt, err := pinger.ping(uint64(i), payload)
				if err != nil {
					bs.Close()
					relay.Close()
					parent.Close()
					return nil, err
				}
				if i >= 5 {
					samples = append(samples, rtt)
				}
			}
			res.Rows = append(res.Rows, Fig9aRow{System: combo.Name, Payload: size, RTT: summarize(samples)})
		}
		bs.Close()
		relay.Close()
		parent.Close()
	}

	// O-RAN pipeline: agent → E2T → xApp (two hops, double decode).
	ric, err := oranric.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ric.Close()
	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: sm.SchemeASN, Controller: ric.Addr(),
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: e2ap.SchemeASN},
		SMs:   []uint16{sm.IDHelloWorld},
	})
	if err != nil {
		return nil, err
	}
	defer bs.Close()
	if !WaitUntil(waitShort, func() bool { return len(ric.Agents()) == 1 }) {
		return nil, fmt.Errorf("agent did not register at O-RAN RIC")
	}
	agentID := ric.Agents()[0]
	pongs := make(chan int64, 64)
	subbed := make(chan struct{}, 1)
	x := ric.DeployXApp("hw-ping", oranric.XAppCallbacks{
		OnSubscribed: func(int) {
			select {
			case subbed <- struct{}{}:
			default:
			}
		},
		OnIndication: func(ag int, ind *e2ap.Indication) {
			if p, err := sm.DecodeHWPing(ind.Payload); err == nil {
				select {
				case pongs <- p.T0:
				default:
				}
			}
		},
	})
	if err := x.Subscribe(agentID, sm.IDHelloWorld,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil); err != nil {
		return nil, err
	}
	select {
	case <-subbed:
	case <-time.After(waitShort):
		return nil, fmt.Errorf("O-RAN subscription not confirmed")
	}
	for _, size := range payloads {
		payload := make([]byte, size)
		var samples []time.Duration
		for i := 0; i < n+5; i++ {
			t0 := time.Now().UnixNano()
			ping := &sm.HWPing{Seq: uint64(i), T0: t0, Data: payload}
			if err := x.Control(agentID, sm.IDHelloWorld, nil, sm.EncodeHWPing(sm.SchemeASN, ping), false); err != nil {
				return nil, err
			}
			deadline := time.After(waitShort)
		waitPong:
			for {
				select {
				case got := <-pongs:
					if got == t0 {
						if i >= 5 {
							samples = append(samples, time.Duration(time.Now().UnixNano()-t0))
						}
						break waitPong
					}
				case <-deadline:
					return nil, fmt.Errorf("O-RAN ping timeout")
				}
			}
		}
		res.Rows = append(res.Rows, Fig9aRow{System: "O-RAN", Payload: size, RTT: summarize(samples)})
	}
	return res, nil
}

// String renders the Fig. 9a table.
func (r *Fig9aResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.System,
			fmt.Sprintf("%dB", row.Payload),
			fmt.Sprintf("%.0f", float64(row.RTT.Mean.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.P50.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.P95.Microseconds())),
		})
	}
	return "Fig 9a — two-hop ping RTT (µs)\n" +
		Table([]string{"system", "payload", "mean", "p50", "p95"}, rows)
}

// Fig9bResult is the Fig. 9b dataset.
type Fig9bResult struct {
	FlexRICCPU float64
	ORANCPU    float64
	// FlexRICMem is measured controller state; ORANMem adds the modeled
	// always-on platform residency (paper: docker stats across the 15
	// components + xApp).
	FlexRICMem float64
	ORANMem    float64
	Agents     int
	Duration   time.Duration
	// DoubleDecodes diagnoses the O-RAN pipeline (E2T + xApp decodes).
	E2TDecodes, XAppDecodes uint64
}

// Fig9b reproduces Fig. 9b: the monitoring use case on both platforms.
func Fig9b(agents int, d time.Duration) (*Fig9bResult, error) {
	res := &Fig9bResult{Agents: agents, Duration: d}

	// --- FlexRIC ---
	var err error
	// O-RAN-standard encoding on both systems.
	res.FlexRICCPU, res.FlexRICMem, err = flexricMonitor(e2ap.SchemeASN, sm.SchemeASN, agents, d)
	if err != nil {
		return nil, err
	}

	// --- O-RAN RIC ---
	{
		ric, err := oranric.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var stored uint64
		memBase := metrics.HeapInUse()
		x := ric.DeployXApp("stats", oranric.XAppCallbacks{
			OnIndication: func(ag int, ind *e2ap.Indication) {
				if rep, err := sm.DecodeMACReport(ind.Payload); err == nil {
					stored += uint64(len(rep.UEs))
				}
			},
		})
		var dummies []*DummyAgent
		for i := 0; i < agents; i++ {
			da, err := StartDummyAgent(uint64(i+1), ric.Addr(), e2ap.SchemeASN, sm.SchemeASN, 32, time.Millisecond)
			if err != nil {
				ric.Close()
				return nil, err
			}
			dummies = append(dummies, da)
		}
		if !WaitUntil(waitShort, func() bool { return len(ric.Agents()) == agents }) {
			ric.Close()
			return nil, fmt.Errorf("agents missing (oran)")
		}
		for _, id := range ric.Agents() {
			if err := x.Subscribe(id, sm.IDMACStats,
				sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}),
				[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}}); err != nil {
				ric.Close()
				return nil, err
			}
		}
		if !WaitUntil(waitShort, func() bool {
			_, xd := ric.DoubleDecodes()
			return xd > uint64(agents*10)
		}) {
			ric.Close()
			return nil, fmt.Errorf("indications not flowing (oran)")
		}
		m := metrics.StartCPU()
		time.Sleep(d)
		res.ORANCPU = m.NormalizedPercent()
		res.ORANMem = heapSinceMB(memBase) +
			float64(oranric.PlatformResidentMB()) + oranric.XAppResidentMB
		res.E2TDecodes, res.XAppDecodes = ric.DoubleDecodes()
		for _, da := range dummies {
			da.Close()
		}
		ric.Close()
		_ = stored
	}
	return res, nil
}

// String renders the Fig. 9b table.
func (r *Fig9bResult) String() string {
	rows := [][]string{
		{"FlexRIC", fmt.Sprintf("%.2f", r.FlexRICCPU), fmt.Sprintf("%.1f", r.FlexRICMem)},
		{"O-RAN RIC", fmt.Sprintf("%.2f", r.ORANCPU), fmt.Sprintf("%.1f", r.ORANMem)},
	}
	return fmt.Sprintf("Fig 9b — monitoring use case, %d agents x 32 UEs @1ms, %v (O-RAN decodes: e2t=%d xapp=%d)\n",
		r.Agents, r.Duration, r.E2TDecodes, r.XAppDecodes) +
		Table([]string{"platform", "CPU %", "memory MB"}, rows)
}
