package ctrl

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"flexric/internal/broker"
	"flexric/internal/e2ap"
	"flexric/internal/rest"
	"flexric/internal/server"
	"flexric/internal/sm"
)

// TCController is the flow-based traffic control specialization of
// §6.1.1 (Table 3): iApps forward RLC and TC statistics to a message
// broker (the Redis role), and a TC SM manager relays REST POST commands
// to the agent. The xApp subscribes to the broker channels and posts
// control commands — functionally isolated from the controller.
//
// Broker channels: "stats.rlc.<agent>" and "stats.tc.<agent>" carry raw
// SM payloads. REST: POST /tc?agent=N with TCCommandJSON.
type TCController struct {
	mon  *Monitor
	pub  *broker.Client
	http *http.Server
	lis  net.Listener

	rlcChans sync.Map // server.AgentID → "stats.rlc.<agent>"
}

// TCCommandJSON is the REST body for POST /tc.
type TCCommandJSON struct {
	Op   string `json:"op"` // addQueue | removeQueue | addFilter | setPacer
	RNTI uint16 `json:"rnti"`

	Queue uint32 `json:"queue,omitempty"`

	SrcIP      uint32 `json:"srcIp,omitempty"`
	DstIP      uint32 `json:"dstIp,omitempty"`
	SrcPort    uint16 `json:"srcPort,omitempty"`
	DstPort    uint16 `json:"dstPort,omitempty"`
	Proto      uint8  `json:"proto,omitempty"`
	MatchProto bool   `json:"matchProto,omitempty"`

	Pacer         string `json:"pacer,omitempty"` // "none" | "bdp"
	PacerTargetMS uint32 `json:"pacerTargetMs,omitempty"`
}

// TCCommandResult is the REST response for POST /tc.
type TCCommandResult struct {
	Queue uint32 `json:"queue,omitempty"`
}

// NewTCController attaches the TC specialization to mon's server:
// stats forwarding to the broker at brokerAddr and a REST endpoint on
// httpAddr. RLC reports are forwarded from mon's RLC subscription, at
// mon's period, so mon must subscribe to RLC; the TC SM, which nothing
// else reads, gets a subscription of its own.
func NewTCController(mon *Monitor, brokerAddr, httpAddr string) (*TCController, error) {
	pub, err := broker.Dial(brokerAddr)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", httpAddr)
	if err != nil {
		pub.Close()
		return nil, err
	}
	c := &TCController{mon: mon, pub: pub, lis: lis}
	if err := mon.OnIndication(sm.IDRLCStats, func(ev server.IndicationEvent) {
		_ = c.pub.PublishTraced(c.rlcChannel(ev.Agent), ev.Env.IndicationPayload(), ev.Trace)
	}); err != nil {
		lis.Close()
		pub.Close()
		return nil, err
	}

	mon.srv.OnAgentConnect(func(info server.AgentInfo) {
		if info.HasFunction(sm.IDTrafficCtrl) {
			ch := fmt.Sprintf("stats.tc.%d", info.ID)
			_, _ = mon.srv.Subscribe(info.ID, sm.IDTrafficCtrl,
				sm.EncodeTrigger(mon.scheme, sm.Trigger{PeriodMS: 10}),
				[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
				server.SubscriptionCallbacks{
					OnIndication: func(ev server.IndicationEvent) {
						_ = c.pub.PublishTraced(ch, ev.Env.IndicationPayload(), ev.Trace)
					},
				})
		}
	})

	mux := http.NewServeMux()
	rest.Handle(mux, "ctrl.http", c.routes())
	c.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = c.http.Serve(lis) }()
	return c, nil
}

// rlcChannel returns the broker channel of an agent's RLC reports,
// built on the agent's first report.
func (c *TCController) rlcChannel(id server.AgentID) string {
	if ch, ok := c.rlcChans.Load(id); ok {
		return ch.(string)
	}
	ch := fmt.Sprintf("stats.rlc.%d", id)
	c.rlcChans.Store(id, ch)
	return ch
}

// Addr returns the REST northbound address.
func (c *TCController) Addr() string { return c.lis.Addr().String() }

// Close stops the REST server and broker connection.
func (c *TCController) Close() error {
	c.pub.Close()
	return c.http.Close()
}

// routes lists the REST northbound, counted like the slicing routes.
func (c *TCController) routes() []rest.Route {
	return []rest.Route{{Pattern: "POST /tc", Label: "tc", Handler: c.handleTC}}
}

func (c *TCController) handleTC(w http.ResponseWriter, r *http.Request) {
	id, err := agentParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var body TCCommandJSON
	if !readJSON(w, r, &body) {
		return
	}
	ctl, err := TCControlFromJSON(&body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	outcome, err := c.Apply(id, ctl)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	res := TCCommandResult{}
	if outcome != nil {
		if oc, err := sm.DecodeTCOutcome(outcome); err == nil {
			res.Queue = oc.Queue
		}
	}
	rest.WriteJSON(w, http.StatusOK, res)
}

// TCControlFromJSON converts and validates a POST /tc body: the one
// conversion behind the REST handler and the in-process iApps.
func TCControlFromJSON(body *TCCommandJSON) (*sm.TCControl, error) {
	ctl := &sm.TCControl{
		RNTI:       body.RNTI,
		Queue:      body.Queue,
		SrcIP:      body.SrcIP,
		DstIP:      body.DstIP,
		SrcPort:    body.SrcPort,
		DstPort:    body.DstPort,
		Proto:      body.Proto,
		MatchProto: body.MatchProto,
	}
	switch body.Op {
	case "addQueue":
		ctl.Op = sm.OpAddQueue
	case "removeQueue":
		ctl.Op = sm.OpRemoveQueue
	case "addFilter":
		ctl.Op = sm.OpAddFilter
	case "setPacer":
		ctl.Op = sm.OpSetPacer
		switch body.Pacer {
		case "bdp":
			ctl.Pacer = 1
		case "", "none":
			ctl.Pacer = 0
		default:
			return nil, fmt.Errorf("unknown pacer %q", body.Pacer)
		}
		ctl.PacerTargetMS = body.PacerTargetMS
	default:
		return nil, fmt.Errorf("unknown op %q", body.Op)
	}
	return ctl, nil
}

// Apply sends a TC SM control to an agent and returns its outcome.
func (c *TCController) Apply(id server.AgentID, ctl *sm.TCControl) ([]byte, error) {
	return c.mon.srv.ControlWait(id, sm.IDTrafficCtrl, nil, sm.EncodeTCControl(c.mon.scheme, ctl))
}
