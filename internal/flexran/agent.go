package flexran

import (
	"sync"

	"flexric/internal/ran"
	"flexric/internal/transport"
)

// Agent is the FlexRAN agent: it pushes bundled all-layer statistics to
// the controller at the configured period and answers echo requests.
type Agent struct {
	bsID uint64
	cell *ran.Cell
	tc   transport.Conn

	mu       sync.Mutex
	periodMS int64
	flags    uint32
	nextDue  int64

	done chan struct{}
}

// NewAgent connects a FlexRAN agent for the given cell to a controller.
func NewAgent(bsID uint64, cell *ran.Cell, addr string) (*Agent, error) {
	tc, err := transport.Dial(transport.KindSCTPish, addr)
	if err != nil {
		return nil, err
	}
	a := &Agent{bsID: bsID, cell: cell, tc: tc, done: make(chan struct{})}
	wire, err := Encode(MsgHello, &Hello{BSID: bsID})
	if err != nil {
		tc.Close()
		return nil, err
	}
	if err := tc.Send(wire); err != nil {
		tc.Close()
		return nil, err
	}
	go a.recvLoop()
	return a, nil
}

// Close disconnects the agent.
func (a *Agent) Close() error {
	select {
	case <-a.done:
	default:
		close(a.done)
	}
	return a.tc.Close()
}

func (a *Agent) recvLoop() {
	for {
		wire, err := a.tc.Recv(nil)
		if err != nil {
			return
		}
		t, msg, err := Decode(wire)
		if err != nil {
			continue
		}
		switch t {
		case MsgStatsRequest:
			req := msg.(*StatsRequest)
			a.mu.Lock()
			a.periodMS = int64(req.PeriodMS)
			a.flags = req.Flags
			a.nextDue = 0
			a.mu.Unlock()
		case MsgEchoRequest:
			echo := msg.(*Echo)
			if out, err := Encode(MsgEchoReply, echo); err == nil {
				_ = a.tc.Send(out)
			}
		}
	}
}

// Tick drives periodic reporting from the base station's slot loop.
func (a *Agent) Tick(now int64) {
	a.mu.Lock()
	due := a.periodMS > 0 && now >= a.nextDue
	if due {
		a.nextDue = now + a.periodMS
	}
	flags := a.flags
	a.mu.Unlock()
	if !due {
		return
	}
	rep := &StatsReport{BSID: a.bsID, TimeMS: now}
	a.cell.WithUEs(func(ues []*ran.UE) {
		for _, u := range ues {
			var s UEStats
			s.RNTI = u.RNTI
			if flags&FlagMAC != 0 {
				m := u.MACStats()
				s.CQI = uint8(m.CQI)
				s.MCS = uint8(m.MCS)
				s.RBsUsed = m.RBsUsed
				s.MACTxBits = m.TxBits
			}
			if flags&FlagRLC != 0 {
				r := u.RLC().Stats()
				s.RLCTxPkts = r.TxPackets
				s.RLCTxB = r.TxBytes
				s.RLCBufB = uint64(r.BufferBytes)
			}
			if flags&FlagPDCP != 0 {
				p := u.PDCPStats()
				s.PDCPTxPkt = p.TxPackets
				s.PDCPTxB = p.TxBytes
			}
			rep.UEs = append(rep.UEs, s)
		}
	})
	if wire, err := Encode(MsgStatsReport, rep); err == nil {
		_ = a.tc.Send(wire)
	}
}
