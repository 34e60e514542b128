package experiments

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/flexran"
	"flexric/internal/oranric"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/transport"
)

// The RTT figures (Figs. 7a and 9a) ping several systems. Every compared
// system is a pinger, and one loop measures them all: ping i goes to
// every pinger, at every payload, before ping i+1, so that load from
// elsewhere falls on every configuration alike.

// waitShort bounds setup waits in experiments.
const waitShort = 10 * time.Second

// pingWarmup pings per pinger and payload precede the sampled ones.
const pingWarmup = 5

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

// pinger is one compared system of an RTT figure: send transmits a ping
// stamped t0, and the T0 of every echo arrives on pongs.
type pinger struct {
	name  string
	send  func(seq uint64, t0 int64, payload []byte) error
	pongs chan int64 // room for stale pongs, so pong does not drop the awaited one
}

// system brings up one compared system, adding what it opens to cl.
type system func(cl *closers) (*pinger, error)

// pong hands an echoed T0 to the ping loop; one the loop has no room
// for is stale.
func (p *pinger) pong(t0 int64) {
	select {
	case p.pongs <- t0:
	default:
	}
}

// ping sends one ping and waits for its own echo, skipping stale ones.
func (p *pinger) ping(seq uint64, payload []byte) (time.Duration, error) {
	t0 := time.Now().UnixNano()
	if err := p.send(seq, t0, payload); err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	timeout := time.After(waitShort)
	for {
		select {
		case got := <-p.pongs:
			if got == t0 {
				return time.Duration(time.Now().UnixNano() - t0), nil
			}
		case <-timeout:
			return 0, fmt.Errorf("%s: ping timeout", p.name)
		}
	}
}

// pingSystems brings up every system, pings them interleaved
// (pingWarmup+n pings per system and payload, the first pingWarmup
// dropped), closes them, and hands one row per system and payload, in
// that order, to row.
func pingSystems(systems []system, n int, payloads []int, row func(name string, payload int, rtt RTTStats)) error {
	if len(payloads) == 0 {
		payloads = []int{100, 1500}
	}
	var cl closers
	defer cl.close()
	ps := make([]*pinger, len(systems))
	for k, up := range systems {
		var err error
		if ps[k], err = up(&cl); err != nil {
			return err
		}
	}
	samples := make([][]time.Duration, len(ps)*len(payloads))
	for i := 0; i < pingWarmup+n; i++ {
		for k, p := range ps {
			for s, size := range payloads {
				rtt, err := p.ping(uint64(i), make([]byte, size))
				if err != nil {
					return err
				}
				if i >= pingWarmup {
					samples[k*len(payloads)+s] = append(samples[k*len(payloads)+s], rtt)
				}
			}
		}
	}
	for k, p := range ps {
		for s, size := range payloads {
			row(p.name, size, summarize(samples[k*len(payloads)+s]))
		}
	}
	return nil
}

// flexricSystem is a HW-SM station under a FlexRIC server, directly or
// (twoHop) behind a ctrl.Relay.
func flexricSystem(c EncodingCombo, twoHop bool) system {
	return func(cl *closers) (*pinger, error) {
		srv, addr, err := StartServer(c.E2AP)
		if err != nil {
			return nil, err
		}
		cl.add(srv.Close)
		connected := func() bool { return len(srv.Agents()) == 1 }
		if twoHop {
			relay, err := ctrl.NewRelay("127.0.0.1:0", addr, c.E2AP, transport.KindSCTPish,
				[]uint16{sm.IDHelloWorld})
			if err != nil {
				return nil, err
			}
			cl.add(relay.Close)
			addr = relay.SouthAddr()
			connected = func() bool { return len(srv.Agents()) == 1 && len(relay.Server().Agents()) == 1 }
		}
		if err := hwStation(cl, addr, c, connected); err != nil {
			return nil, err
		}
		id := srv.Agents()[0].ID
		p := &pinger{name: c.Name, pongs: make(chan int64, 64)}
		var admitted atomic.Bool
		if _, err := srv.Subscribe(id, sm.IDHelloWorld,
			sm.EncodeTrigger(c.E2SM, sm.Trigger{PeriodMS: 1}), nil,
			server.SubscriptionCallbacks{
				OnAdmitted: func(*e2ap.SubscriptionResponse) { admitted.Store(true) },
				OnIndication: func(ev server.IndicationEvent) {
					if pong, err := sm.DecodeHWPing(ev.Env.IndicationPayload()); err == nil {
						p.pong(pong.T0)
					}
				},
			}); err != nil {
			return nil, err
		}
		p.send = func(seq uint64, t0 int64, payload []byte) error {
			ping := sm.EncodeHWPing(c.E2SM, &sm.HWPing{Seq: seq, T0: t0, Data: payload})
			return srv.Control(id, sm.IDHelloWorld, nil, ping, false, nil)
		}
		if !WaitUntil(waitShort, admitted.Load) {
			return nil, fmt.Errorf("%s: subscription not admitted", p.name)
		}
		return p, nil
	}
}

// flexranSystem is a FlexRAN agent on a 4G cell under a FlexRAN
// controller; its pings are the protocol's echo.
func flexranSystem(cl *closers) (*pinger, error) {
	fc, addr, err := flexran.NewController("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl.add(fc.Close)
	cell, err := ran.NewCell(ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25})
	if err != nil {
		return nil, err
	}
	fa, err := flexran.NewAgent(1, cell, addr)
	if err != nil {
		return nil, err
	}
	cl.add(fa.Close)
	if !WaitUntil(waitShort, func() bool { return len(fc.Agents()) == 1 }) {
		return nil, fmt.Errorf("FlexRAN: agent did not connect")
	}
	p := &pinger{name: "FlexRAN", pongs: make(chan int64, 64)}
	echoes, done := make(chan *flexran.Echo, 64), make(chan struct{})
	fc.SubscribeEcho(echoes)
	go func() {
		for {
			select {
			case e := <-echoes:
				p.pong(e.T0)
			case <-done:
				return
			}
		}
	}()
	cl.add(func() error { close(done); return nil })
	p.send = func(seq uint64, t0 int64, payload []byte) error {
		return fc.Echo(1, &flexran.Echo{Seq: seq, T0: t0, Data: payload})
	}
	return p, nil
}

// oranSystem is a HW-SM station (ASN.1 on both levels) under the O-RAN
// RIC, pinged by an xApp: agent → E2T → xApp, two hops and a double
// decode.
func oranSystem(cl *closers) (*pinger, error) {
	ric, err := oranric.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl.add(ric.Close)
	if err := hwStation(cl, ric.Addr(), EncodingCombo{"O-RAN", e2ap.SchemeASN, sm.SchemeASN},
		func() bool { return len(ric.Agents()) == 1 }); err != nil {
		return nil, err
	}
	id := ric.Agents()[0]
	p := &pinger{name: "O-RAN", pongs: make(chan int64, 64)}
	var confirmed atomic.Bool
	x := ric.DeployXApp("hw-ping", oranric.XAppCallbacks{
		OnSubscribed: func(int) { confirmed.Store(true) },
		OnIndication: func(_ int, ind *e2ap.Indication) {
			if pong, err := sm.DecodeHWPing(ind.Payload); err == nil {
				p.pong(pong.T0)
			}
		},
	})
	if err := x.Subscribe(id, sm.IDHelloWorld,
		sm.EncodeTrigger(sm.SchemeASN, sm.Trigger{PeriodMS: 1}), nil); err != nil {
		return nil, err
	}
	p.send = func(seq uint64, t0 int64, payload []byte) error {
		ping := sm.EncodeHWPing(sm.SchemeASN, &sm.HWPing{Seq: seq, T0: t0, Data: payload})
		return x.Control(id, sm.IDHelloWorld, nil, ping, false)
	}
	if !WaitUntil(waitShort, confirmed.Load) {
		return nil, fmt.Errorf("%s: subscription not confirmed", p.name)
	}
	return p, nil
}

// hwStation brings up a 4G station that exports only the HW SM and waits
// until connected holds.
func hwStation(cl *closers, controller string, c EncodingCombo, connected func() bool) error {
	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: c.E2SM, Controller: controller,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: c.E2AP},
		SMs:   []uint16{sm.IDHelloWorld},
	})
	if err != nil {
		return err
	}
	cl.add(func() error { bs.Close(); return nil })
	if !WaitUntil(waitShort, connected) {
		return fmt.Errorf("%s: agent did not connect", c.Name)
	}
	return nil
}
