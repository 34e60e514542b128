package experiments

import (
	"fmt"
	"sort"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/flexran"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
)

// Fig. 7: "Comparison of E2AP/E2SM encoding schemes using E2SM-HW ping".
// The iApp pings the agent through a control message; the agent replies
// with an indication (§5.2). Four encoding combinations (E2AP × E2SM)
// plus the FlexRAN echo baseline, at 100 B and 1500 B payloads.

// waitShort bounds setup waits in experiments.
const waitShort = 10 * time.Second

// EncodingCombo names one E2AP/E2SM scheme pair.
type EncodingCombo struct {
	Name string
	E2AP e2ap.Scheme
	E2SM sm.Scheme
}

// Combos returns the four combinations of Fig. 7 in paper order.
func Combos() []EncodingCombo {
	return []EncodingCombo{
		{"ASN/ASN", e2ap.SchemeASN, sm.SchemeASN},
		{"ASN/FB", e2ap.SchemeASN, sm.SchemeFB},
		{"FB/ASN", e2ap.SchemeFB, sm.SchemeASN},
		{"FB/FB", e2ap.SchemeFB, sm.SchemeFB},
	}
}

// RTTStats summarizes a ping run. Min is the noise-robust latency
// signal on loopback (scheduler jitter inflates every percentile above
// it under load).
type RTTStats struct {
	Min, Mean, P50, P95 time.Duration
	N                   int
}

func summarize(samples []time.Duration) RTTStats {
	if len(samples) == 0 {
		return RTTStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return RTTStats{
		Min:  samples[0],
		Mean: sum / time.Duration(len(samples)),
		P50:  samples[len(samples)/2],
		P95:  samples[int(float64(len(samples))*0.95)],
		N:    len(samples),
	}
}

// hwPinger drives HW-E2SM pings against an agent through a server and
// returns RTT samples.
type hwPinger struct {
	srv     *server.Server
	agentID server.AgentID
	scheme  sm.Scheme
	pongs   chan int64 // T0 echoed back
}

func newHWPinger(srv *server.Server, agentID server.AgentID, e2s e2ap.Scheme, sms sm.Scheme) (*hwPinger, error) {
	p := &hwPinger{srv: srv, agentID: agentID, scheme: sms, pongs: make(chan int64, 64)}
	admitted := make(chan struct{}, 1)
	_, err := srv.Subscribe(agentID, sm.IDHelloWorld,
		sm.EncodeTrigger(sms, sm.Trigger{PeriodMS: 1}), nil,
		server.SubscriptionCallbacks{
			OnAdmitted: func(*e2ap.SubscriptionResponse) { admitted <- struct{}{} },
			OnIndication: func(ev server.IndicationEvent) {
				if pong, err := sm.DecodeHWPing(ev.Env.IndicationPayload()); err == nil {
					select {
					case p.pongs <- pong.T0:
					default:
					}
				}
			},
		})
	if err != nil {
		return nil, err
	}
	select {
	case <-admitted:
	case <-time.After(waitShort):
		return nil, fmt.Errorf("hw subscription not admitted")
	}
	return p, nil
}

// ping sends one ping and waits for the echo, returning the RTT.
func (p *hwPinger) ping(seq uint64, payload []byte) (time.Duration, error) {
	t0 := time.Now().UnixNano()
	msg := &sm.HWPing{Seq: seq, T0: t0, Data: payload}
	if err := p.srv.Control(p.agentID, sm.IDHelloWorld, nil, sm.EncodeHWPing(p.scheme, msg), false, nil); err != nil {
		return 0, err
	}
	for {
		select {
		case got := <-p.pongs:
			if got == t0 {
				return time.Duration(time.Now().UnixNano() - t0), nil
			}
			// stale pong from a previous ping: skip
		case <-time.After(waitShort):
			return 0, fmt.Errorf("ping timeout")
		}
	}
}

// Fig7aRow is one bar of Fig. 7a.
type Fig7aRow struct {
	Combo   string
	Payload int
	RTT     RTTStats
}

// Fig7aResult is the Fig. 7a dataset.
type Fig7aResult struct {
	Rows []Fig7aRow
}

// Fig7a reproduces Fig. 7a: HW ping RTT per encoding combination and the
// FlexRAN baseline, n pings per configuration.
func Fig7a(n int, payloads []int) (*Fig7aResult, error) {
	if len(payloads) == 0 {
		payloads = []int{100, 1500}
	}
	res := &Fig7aResult{}
	for _, combo := range Combos() {
		srv, addr, err := StartServer(combo.E2AP)
		if err != nil {
			return nil, err
		}
		bs, err := station.New(station.Spec{
			Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: combo.E2SM, Controller: addr,
			Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: combo.E2AP},
			SMs:   []uint16{sm.IDHelloWorld},
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
		if !WaitUntil(waitShort, func() bool { return len(srv.Agents()) == 1 }) {
			bs.Close()
			srv.Close()
			return nil, fmt.Errorf("agent connect")
		}
		pinger, err := newHWPinger(srv, srv.Agents()[0].ID, combo.E2AP, combo.E2SM)
		if err != nil {
			bs.Close()
			srv.Close()
			return nil, err
		}
		for _, size := range payloads {
			payload := make([]byte, size)
			var samples []time.Duration
			// Warm-up pings are excluded.
			for i := 0; i < 5; i++ {
				if _, err := pinger.ping(uint64(i), payload); err != nil {
					bs.Close()
					srv.Close()
					return nil, err
				}
			}
			for i := 0; i < n; i++ {
				rtt, err := pinger.ping(uint64(100+i), payload)
				if err != nil {
					bs.Close()
					srv.Close()
					return nil, err
				}
				samples = append(samples, rtt)
			}
			res.Rows = append(res.Rows, Fig7aRow{
				Combo: combo.Name, Payload: size, RTT: summarize(samples),
			})
		}
		bs.Close()
		srv.Close()
	}

	// FlexRAN echo baseline.
	fc, fcAddr, err := flexran.NewController("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer fc.Close()
	cell, err := ran.NewCell(ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25})
	if err != nil {
		return nil, err
	}
	fa, err := flexran.NewAgent(1, cell, fcAddr)
	if err != nil {
		return nil, err
	}
	defer fa.Close()
	if !WaitUntil(waitShort, func() bool { return len(fc.Agents()) == 1 }) {
		return nil, fmt.Errorf("flexran agent connect")
	}
	replies := make(chan *flexran.Echo, 64)
	fc.SubscribeEcho(replies)
	for _, size := range payloads {
		payload := make([]byte, size)
		var samples []time.Duration
		for i := 0; i < n+5; i++ {
			t0 := time.Now().UnixNano()
			if err := fc.Echo(1, &flexran.Echo{Seq: uint64(i), T0: t0, Data: payload}); err != nil {
				return nil, err
			}
			select {
			case e := <-replies:
				if e.T0 == t0 && i >= 5 {
					samples = append(samples, time.Duration(time.Now().UnixNano()-t0))
				}
			case <-time.After(waitShort):
				return nil, fmt.Errorf("flexran echo timeout")
			}
		}
		res.Rows = append(res.Rows, Fig7aRow{Combo: "FlexRAN", Payload: size, RTT: summarize(samples)})
	}
	return res, nil
}

// String renders the Fig. 7a table.
func (r *Fig7aResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Combo,
			fmt.Sprintf("%dB", row.Payload),
			fmt.Sprintf("%.0f", float64(row.RTT.Min.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.Mean.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.P50.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.P95.Microseconds())),
			fmt.Sprintf("%d", row.RTT.N),
		})
	}
	return "Fig 7a — E2SM-HW ping round-trip time by encoding (µs)\n" +
		Table([]string{"E2AP/E2SM", "payload", "min", "mean", "p50", "p95", "n"}, rows)
}

// Fig7bRow is one bar of Fig. 7b.
type Fig7bRow struct {
	Combo   string
	Payload int
	// Mbps is the signaling rate for one ping (control + indication)
	// every 1 ms — 4G's TTI, as in the paper.
	Mbps float64
	// BytesPerPing is the on-wire size of one full ping exchange.
	BytesPerPing int
}

// Fig7bResult is the Fig. 7b dataset.
type Fig7bResult struct {
	Rows []Fig7bRow
}

// Fig7b reproduces Fig. 7b: the signaling rate of a 1 kHz ping for every
// encoding combination, plus FlexRAN. Wire sizes are measured by
// encoding the exact messages exchanged.
func Fig7b(payloads []int) (*Fig7bResult, error) {
	if len(payloads) == 0 {
		payloads = []int{100, 1500}
	}
	res := &Fig7bResult{}
	for _, combo := range Combos() {
		codec := e2ap.MustCodec(combo.E2AP)
		for _, size := range payloads {
			ping := &sm.HWPing{Seq: 1, T0: 1, Data: make([]byte, size)}
			inner := sm.EncodeHWPing(combo.E2SM, ping)
			ctl, err := codec.Encode(&e2ap.ControlRequest{
				RequestID:     e2ap.RequestID{Requestor: 2, Instance: 1},
				RANFunctionID: sm.IDHelloWorld,
				Payload:       inner,
			})
			if err != nil {
				return nil, err
			}
			ctlLen := len(ctl)
			ind, err := codec.Encode(&e2ap.Indication{
				RequestID:     e2ap.RequestID{Requestor: 1, Instance: 1},
				RANFunctionID: sm.IDHelloWorld,
				ActionID:      1,
				SN:            1,
				Payload:       inner,
			})
			if err != nil {
				return nil, err
			}
			total := ctlLen + len(ind)
			res.Rows = append(res.Rows, Fig7bRow{
				Combo: combo.Name, Payload: size,
				BytesPerPing: total,
				Mbps:         float64(total) * 8 * 1000 / 1e6,
			})
		}
	}
	for _, size := range payloads {
		echo := &flexran.Echo{Seq: 1, T0: 1, Data: make([]byte, size)}
		req, err := flexran.Encode(flexran.MsgEchoRequest, echo)
		if err != nil {
			return nil, err
		}
		rep, err := flexran.Encode(flexran.MsgEchoReply, echo)
		if err != nil {
			return nil, err
		}
		total := len(req) + len(rep)
		res.Rows = append(res.Rows, Fig7bRow{
			Combo: "FlexRAN", Payload: size,
			BytesPerPing: total,
			Mbps:         float64(total) * 8 * 1000 / 1e6,
		})
	}
	return res, nil
}

// String renders the Fig. 7b table.
func (r *Fig7bResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Combo,
			fmt.Sprintf("%dB", row.Payload),
			fmt.Sprintf("%.2f", row.Mbps),
			fmt.Sprintf("%d", row.BytesPerPing),
		})
	}
	return "Fig 7b — signaling rate at one ping per 1 ms (Mbps)\n" +
		Table([]string{"E2AP/E2SM", "payload", "Mbps", "B/ping"}, rows)
}
