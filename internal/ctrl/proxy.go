package ctrl

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/server"
)

// Proxy is the recursive composition of Fig. 2 as one component: the
// server library terminates agents on the south side, the agent library
// exposes RAN functions to a parent controller on the north side, and
// every north subscription becomes one south leg. The relay (§5.4), the
// virtualization controller (§6.2) and the federation shard are three
// configurations of it, differing only in their ProxyFns.
//
// A subscription whose south agent has not connected yet is admitted
// and parked; it is placed when a matching agent connects. A
// fire-and-forget control sent meanwhile is held, and follows the
// placed legs south (control).
type Proxy struct {
	srv *server.Server

	mu sync.Mutex
	// agents lists the connected south agents in connect order.
	agents []server.AgentInfo
	// legs maps each placed north subscription to its south leg.
	legs   map[legID]server.SubID
	parked []leg
	// held are the fire-and-forget controls waiting for a south agent,
	// at most maxHeld, oldest first.
	held []heldControl
}

// maxHeld bounds the controls a proxy holds for south agents that have
// not connected.
const maxHeld = 64

// heldControl is a fire-and-forget control kept until an agent that
// match accepts connects.
type heldControl struct {
	match           func(server.AgentInfo) bool
	fnID            uint16
	header, payload []byte
}

// ProxyFn describes one north RAN function of a Proxy.
type ProxyFn struct {
	Def e2ap.RANFunctionItem
	// Route picks the south agent a subscription goes to and the
	// trigger sent there; an error refuses the subscription. match is
	// called under the proxy's lock and must not block.
	Route func(ctrl agent.ControllerID, trigger []byte) (match func(server.AgentInfo) bool, inner []byte, err error)
	// Rewrite maps a south indication payload into the north view; the
	// rewritten indication carries no header, and an error drops it.
	// Nil forwards header and payload byte for byte.
	Rewrite func(ctrl agent.ControllerID, payload []byte) ([]byte, error)
	// Control handles a north control request; nil refuses it.
	Control func(ctrl agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error)
}

// legID names a north subscription: north RequestIDs are unique only
// per controller connection and function.
type legID struct {
	ctrl agent.ControllerID
	fnID uint16
	req  e2ap.RequestID
}

// leg is one north subscription, kept whole while it is parked.
type leg struct {
	id      legID
	match   func(server.AgentInfo) bool
	inner   []byte
	actions []e2ap.Action
	tx      agent.IndicationSender
	rewrite func(agent.ControllerID, []byte) ([]byte, error)
}

var errNoSouth = errors.New("ctrl: no southbound agent")

// NewProxy attaches a proxy to srv and registers fns on north. Call it
// before srv.Start so that no south agent connects unrecorded.
func NewProxy(srv *server.Server, north *agent.Agent, fns ...ProxyFn) (*Proxy, error) {
	p := &Proxy{srv: srv, legs: make(map[legID]server.SubID)}
	srv.OnAgentConnect(p.onConnect)
	srv.OnAgentDisconnect(p.onDisconnect)
	for _, fn := range fns {
		if err := north.RegisterFunction(&proxyRANFn{p: p, fn: fn}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// south returns the most recently connected south agent match accepts.
func (p *Proxy) south(match func(server.AgentInfo) bool) (server.AgentID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.southLocked(match)
}

func (p *Proxy) southLocked(match func(server.AgentInfo) bool) (server.AgentID, bool) {
	for i := len(p.agents) - 1; i >= 0; i-- {
		if match(p.agents[i]) {
			return p.agents[i].ID, true
		}
	}
	return 0, false
}

// Agents lists the connected south agents in connect order.
func (p *Proxy) Agents() []server.AgentInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.agents)
}

// control sends a fire-and-forget control to the most recently
// connected south agent match accepts. With none connected it holds the
// control until one connects, and fails with errNoSouth only when
// maxHeld controls are held already.
func (p *Proxy) control(match func(server.AgentInfo) bool, fnID uint16, header, payload []byte) error {
	p.mu.Lock()
	south, ok := p.southLocked(match)
	if !ok {
		defer p.mu.Unlock()
		if len(p.held) == maxHeld {
			return errNoSouth
		}
		p.held = append(p.held, heldControl{match, fnID, slices.Clone(header), slices.Clone(payload)})
		return nil
	}
	p.mu.Unlock()
	return p.srv.Control(south, fnID, header, payload, false, nil)
}

// onConnect records the agent, places the parked legs it matches, then
// sends it the held controls it matches, so each follows the
// subscriptions sent before it. The lock is held across the south
// subscribes so a north delete can never fall between a leg leaving the
// parked list and entering legs.
func (p *Proxy) onConnect(info server.AgentInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.agents = append(p.agents, info)
	rest := p.parked[:0]
	for _, l := range p.parked {
		if l.match(info) {
			if sub, err := p.place(info.ID, &l); err == nil {
				p.legs[l.id] = sub
				continue
			}
		}
		rest = append(rest, l)
	}
	clear(p.parked[len(rest):])
	p.parked = rest
	p.held = slices.DeleteFunc(p.held, func(c heldControl) bool {
		if !c.match(info) {
			return false
		}
		_ = p.srv.Control(info.ID, c.fnID, c.header, c.payload, false, nil)
		return true
	})
}

// onDisconnect forgets the agent and the legs the server dropped with it.
func (p *Proxy) onDisconnect(info server.AgentInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.agents = slices.DeleteFunc(p.agents, func(a server.AgentInfo) bool { return a.ID == info.ID })
	for id, sub := range p.legs {
		if sub.Agent == info.ID {
			delete(p.legs, id)
		}
	}
}

// place subscribes south and pumps the leg's indications north.
func (p *Proxy) place(south server.AgentID, l *leg) (server.SubID, error) {
	tx, ctrl, rewrite := l.tx, l.id.ctrl, l.rewrite
	fwd := func(ev server.IndicationEvent) {
		_ = tx.SendIndication(1, e2ap.IndicationReport, ev.Env.IndicationHeader(), ev.Env.IndicationPayload())
	}
	if rewrite != nil {
		fwd = func(ev server.IndicationEvent) {
			if out, err := rewrite(ctrl, ev.Env.IndicationPayload()); err == nil {
				_ = tx.SendIndication(1, e2ap.IndicationReport, nil, out)
			}
		}
	}
	return p.srv.Subscribe(south, l.id.fnID, l.inner, l.actions, server.SubscriptionCallbacks{OnIndication: fwd})
}

// proxyRANFn adapts a ProxyFn to agent.RANFunction.
type proxyRANFn struct {
	p  *Proxy
	fn ProxyFn
}

func (f *proxyRANFn) Definition() e2ap.RANFunctionItem { return f.fn.Def }

func (f *proxyRANFn) OnSubscription(ctrl agent.ControllerID, req *e2ap.SubscriptionRequest, tx agent.IndicationSender) error {
	match, inner, err := f.fn.Route(ctrl, req.EventTrigger)
	if err != nil {
		return err
	}
	l := leg{
		id:    legID{ctrl: ctrl, fnID: f.fn.Def.ID, req: req.RequestID},
		match: match, inner: inner, actions: req.Actions, tx: tx, rewrite: f.fn.Rewrite,
	}
	p := f.p
	p.mu.Lock()
	defer p.mu.Unlock()
	south, ok := p.southLocked(match)
	if !ok {
		p.parked = append(p.parked, l)
		return nil
	}
	sub, err := p.place(south, &l)
	if err != nil {
		return err
	}
	p.legs[l.id] = sub
	return nil
}

func (f *proxyRANFn) OnSubscriptionDelete(ctrl agent.ControllerID, req *e2ap.SubscriptionDeleteRequest) error {
	id := legID{ctrl: ctrl, fnID: f.fn.Def.ID, req: req.RequestID}
	p := f.p
	p.mu.Lock()
	sub, placed := p.legs[id]
	delete(p.legs, id)
	if !placed {
		n := len(p.parked)
		p.parked = slices.DeleteFunc(p.parked, func(l leg) bool { return l.id == id })
		found := len(p.parked) < n
		p.mu.Unlock()
		if !found {
			return fmt.Errorf("ctrl: proxy: unknown subscription")
		}
		return nil
	}
	p.mu.Unlock()
	return p.srv.Unsubscribe(sub, id.fnID)
}

func (f *proxyRANFn) OnControl(ctrl agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
	if f.fn.Control == nil {
		return nil, fmt.Errorf("ctrl: proxy function %d has no control endpoint", f.fn.Def.ID)
	}
	return f.fn.Control(ctrl, req)
}
