package ctrl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"flexric/internal/broker"
	"flexric/internal/e2ap"
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
	srv    *server.Server
	scheme sm.Scheme
	pub    *broker.Client
	http   *http.Server
	lis    net.Listener
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

// NewTCController attaches the TC specialization: stats forwarding to
// the broker at brokerAddr and a REST endpoint on httpAddr.
func NewTCController(srv *server.Server, scheme sm.Scheme, brokerAddr, httpAddr string) (*TCController, error) {
	pub, err := broker.Dial(brokerAddr)
	if err != nil {
		return nil, err
	}
	c := &TCController{srv: srv, scheme: scheme, pub: pub}

	srv.OnAgentConnect(func(info server.AgentInfo) {
		if info.HasFunction(sm.IDRLCStats) {
			ch := fmt.Sprintf("stats.rlc.%d", info.ID)
			_, _ = srv.Subscribe(info.ID, sm.IDRLCStats,
				sm.EncodeTrigger(scheme, sm.Trigger{PeriodMS: 10}),
				[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
				server.SubscriptionCallbacks{
					OnIndication: func(ev server.IndicationEvent) {
						_ = c.pub.PublishTraced(ch, ev.Env.IndicationPayload(), ev.Trace)
					},
				})
		}
		if info.HasFunction(sm.IDTrafficCtrl) {
			ch := fmt.Sprintf("stats.tc.%d", info.ID)
			_, _ = srv.Subscribe(info.ID, sm.IDTrafficCtrl,
				sm.EncodeTrigger(scheme, sm.Trigger{PeriodMS: 10}),
				[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
				server.SubscriptionCallbacks{
					OnIndication: func(ev server.IndicationEvent) {
						_ = c.pub.PublishTraced(ch, ev.Env.IndicationPayload(), ev.Trace)
					},
				})
		}
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/tc", c.handleTC)
	lis, err := net.Listen("tcp", httpAddr)
	if err != nil {
		pub.Close()
		return nil, err
	}
	c.lis = lis
	c.http = &http.Server{Handler: mux}
	go func() { _ = c.http.Serve(lis) }()
	return c, nil
}

// Addr returns the REST northbound address.
func (c *TCController) Addr() string { return c.lis.Addr().String() }

// Close stops the REST server and broker connection.
func (c *TCController) Close() error {
	c.pub.Close()
	return c.http.Close()
}

func (c *TCController) handleTC(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id, err := agentParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var body TCCommandJSON
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctl, err := tcControlFromJSON(&body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	outcome, err := c.apply(id, ctl)
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
	writeJSON(w, res)
}

func tcControlFromJSON(body *TCCommandJSON) (*sm.TCControl, error) {
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

func (c *TCController) apply(id server.AgentID, ctl *sm.TCControl) ([]byte, error) {
	type res struct {
		out []byte
		err error
	}
	ch := make(chan res, 1)
	if err := c.srv.Control(id, sm.IDTrafficCtrl, nil,
		sm.EncodeTCControl(c.scheme, ctl), true,
		func(out []byte, err error) { ch <- res{out, err} }); err != nil {
		return nil, err
	}
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timeout.C:
		return nil, errors.New("tc control timed out")
	}
}
