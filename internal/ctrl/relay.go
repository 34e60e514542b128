package ctrl

import (
	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/server"
	"flexric/internal/transport"
)

// Relay is the two-hop FlexRIC controller of §5.4's RTT experiment: it
// terminates agents on its southbound (server library) and exposes them
// to a parent controller through the agent library on its northbound —
// "we use a relaying controller to emulate two hops, which, unlike O-RAN
// RIC, is not imposed by FlexRIC but added to carry out a fair
// comparison". It demonstrates the recursive composition of Fig. 2: a
// Proxy whose functions pass everything through unchanged.
type Relay struct {
	srv       *server.Server
	north     *agent.Agent
	proxy     *Proxy
	southAddr string
}

func anyAgent(server.AgentInfo) bool { return true }

// relayRoute sends every subscription to the south agent unchanged.
func relayRoute(_ agent.ControllerID, trigger []byte) (func(server.AgentInfo) bool, []byte, error) {
	return anyAgent, trigger, nil
}

// NewRelay builds a relay: it listens for agents on southAddr and
// connects as an agent to the parent controller at parentAddr, exposing
// the given RAN function IDs. The most recently connected southbound
// agent is the relayed target.
func NewRelay(southAddr, parentAddr string, scheme e2ap.Scheme, kind transport.Kind, fnIDs []uint16) (*Relay, error) {
	r := &Relay{
		srv: server.New(server.Config{Scheme: scheme, Transport: kind}),
		north: agent.New(agent.Config{
			NodeID: e2ap.GlobalE2NodeID{
				PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: e2ap.NodeENB, NodeID: 9000,
			},
			Scheme:    scheme,
			Transport: kind,
		}),
	}
	fns := make([]ProxyFn, len(fnIDs))
	for i, id := range fnIDs {
		fns[i] = ProxyFn{
			Def:   e2ap.RANFunctionItem{ID: id, Revision: 1, OID: "relay"},
			Route: relayRoute,
			Control: func(_ agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
				return r.control(id, req)
			},
		}
	}
	var err error
	if r.proxy, err = NewProxy(r.srv, r.north, fns...); err != nil {
		return nil, err
	}
	if r.southAddr, err = r.srv.Start(southAddr); err != nil {
		return nil, err
	}
	if _, err := r.north.Connect(parentAddr); err != nil {
		r.srv.Close()
		return nil, err
	}
	return r, nil
}

// SouthAddr returns the southbound listen address agents dial.
func (r *Relay) SouthAddr() string { return r.southAddr }

// Close tears the relay down.
func (r *Relay) Close() error {
	r.north.Close()
	return r.srv.Close()
}

// Server exposes the southbound server (e.g. to read its bound address
// via Agents, or for tests).
func (r *Relay) Server() *server.Server { return r.srv }

// control forwards a control message to the southbound agent. A
// fire-and-forget control sent before the agent connects is held by the
// proxy; an acknowledged one fails at once rather than stall the north
// agent until one connects.
func (r *Relay) control(fnID uint16, req *e2ap.ControlRequest) ([]byte, error) {
	if !req.AckRequested {
		return nil, r.proxy.control(anyAgent, fnID, req.Header, req.Payload)
	}
	south, ok := r.proxy.south(anyAgent)
	if !ok {
		return nil, errNoSouth
	}
	return r.srv.ControlWait(south, fnID, req.Header, req.Payload)
}
