package flexran

import (
	"fmt"
	"sync"
	"time"

	"flexric/internal/transport"
)

// Controller is the FlexRAN master controller with its RAN information
// base (RIB). Applications read the RIB by polling — there is no
// notification path, matching the original's design.
type Controller struct {
	lis transport.Listener

	mu     sync.Mutex
	agents map[uint64]*ctrlAgent
	rib    map[uint64]*ribEntry

	echoMu   sync.Mutex
	echoSubs []chan *Echo

	wg sync.WaitGroup
}

type ctrlAgent struct {
	bsID uint64
	tc   transport.Conn
}

// ribEntry stores per-BS state. FlexRAN's RIB keeps a history window of
// full report copies per base station — the coarse memory organization
// behind the 3× memory footprint of Fig. 8a.
type ribEntry struct {
	bsID    uint64
	history []*StatsReport // ring of deep-copied reports
	next    int
}

// ribHistoryDepth is the per-BS report history window.
const ribHistoryDepth = 1024

// NewController starts a FlexRAN controller listening on addr. The
// returned address is the bound listen address.
func NewController(addr string) (*Controller, string, error) {
	lis, err := transport.Listen(transport.KindSCTPish, addr)
	if err != nil {
		return nil, "", err
	}
	c := &Controller{
		lis:    lis,
		agents: make(map[uint64]*ctrlAgent),
		rib:    make(map[uint64]*ribEntry),
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			tc, err := lis.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serve(tc)
			}()
		}
	}()
	return c, lis.Addr(), nil
}

// Close shuts the controller down.
func (c *Controller) Close() error {
	c.lis.Close()
	c.mu.Lock()
	for _, a := range c.agents {
		a.tc.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return nil
}

func (c *Controller) serve(tc transport.Conn) {
	defer tc.Close()
	var bsID uint64
	registered := false
	for {
		wire, err := tc.Recv(nil)
		if err != nil {
			break
		}
		t, msg, err := Decode(wire)
		if err != nil {
			continue
		}
		switch t {
		case MsgHello:
			bsID = msg.(*Hello).BSID
			registered = true
			c.mu.Lock()
			c.agents[bsID] = &ctrlAgent{bsID: bsID, tc: tc}
			c.rib[bsID] = &ribEntry{bsID: bsID, history: make([]*StatsReport, 0, ribHistoryDepth)}
			c.mu.Unlock()
		case MsgStatsReport:
			rep := msg.(*StatsReport)
			c.storeReport(rep)
		case MsgEchoReply:
			echo := msg.(*Echo)
			c.echoMu.Lock()
			for _, ch := range c.echoSubs {
				select {
				case ch <- echo:
				default:
				}
			}
			c.echoMu.Unlock()
		}
	}
	if registered {
		c.mu.Lock()
		delete(c.agents, bsID)
		delete(c.rib, bsID)
		c.mu.Unlock()
	}
}

// storeReport deep-copies the report into the RIB history ring.
func (c *Controller) storeReport(rep *StatsReport) {
	cp := &StatsReport{BSID: rep.BSID, TimeMS: rep.TimeMS, UEs: append([]UEStats(nil), rep.UEs...)}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.rib[rep.BSID]
	if e == nil {
		return
	}
	if len(e.history) < ribHistoryDepth {
		e.history = append(e.history, cp)
	} else {
		e.history[e.next] = cp
		e.next = (e.next + 1) % ribHistoryDepth
	}
}

// RequestStats configures the reporting of one agent.
func (c *Controller) RequestStats(bsID uint64, periodMS, flags uint32) error {
	c.mu.Lock()
	a := c.agents[bsID]
	c.mu.Unlock()
	if a == nil {
		return fmt.Errorf("flexran: no agent %d", bsID)
	}
	wire, err := Encode(MsgStatsRequest, &StatsRequest{PeriodMS: periodMS, Flags: flags})
	if err != nil {
		return err
	}
	return a.tc.Send(wire)
}

// Echo sends a ping to an agent; the reply is delivered to channels
// registered with SubscribeEcho.
func (c *Controller) Echo(bsID uint64, e *Echo) error {
	c.mu.Lock()
	a := c.agents[bsID]
	c.mu.Unlock()
	if a == nil {
		return fmt.Errorf("flexran: no agent %d", bsID)
	}
	wire, err := Encode(MsgEchoRequest, e)
	if err != nil {
		return err
	}
	return a.tc.Send(wire)
}

// SubscribeEcho registers a channel receiving echo replies.
func (c *Controller) SubscribeEcho(ch chan *Echo) {
	c.echoMu.Lock()
	c.echoSubs = append(c.echoSubs, ch)
	c.echoMu.Unlock()
}

// Agents lists the registered base stations.
func (c *Controller) Agents() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.agents))
	for id := range c.agents {
		out = append(out, id)
	}
	return out
}

// Poll returns a deep-copied snapshot of the latest report of every base
// station. This is the application API: FlexRAN applications call Poll
// on a timer (e.g. every 1 ms), paying a copy whether or not anything
// changed — the polling overhead the FlexRIC event-driven design avoids.
func (c *Controller) Poll() map[uint64]*StatsReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]*StatsReport, len(c.rib))
	for id, e := range c.rib {
		if len(e.history) == 0 {
			continue
		}
		last := e.history[len(e.history)-1]
		if len(e.history) == ribHistoryDepth {
			idx := e.next - 1
			if idx < 0 {
				idx = ribHistoryDepth - 1
			}
			last = e.history[idx]
		}
		out[id] = &StatsReport{
			BSID:   last.BSID,
			TimeMS: last.TimeMS,
			UEs:    append([]UEStats(nil), last.UEs...),
		}
	}
	return out
}

// PollLoop polls the RIB every period until stop is closed, returning
// the number of polls performed. It emulates a FlexRAN application.
func (c *Controller) PollLoop(period time.Duration, stop <-chan struct{}) uint64 {
	t := time.NewTicker(period)
	defer t.Stop()
	var polls uint64
	for {
		select {
		case <-stop:
			return polls
		case <-t.C:
			_ = c.Poll()
			polls++
		}
	}
}
