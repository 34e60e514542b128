// Package server implements the FlexRIC server library (§4.2.2): it
// multiplexes agent connections and dispatches E2AP messages to internal
// applications (iApps) through an event-driven callback system — iApps
// are invoked only when there are new messages, never by polling (the
// ultra-lean property contrasted with FlexRAN in §5.3).
//
// The server library itself implements no service model and requests
// nothing from agents on its own; iApps trigger all SM-related
// communication, and the library provides RAN management (with the RAN
// database merging disaggregated agents into RAN entities), subscription
// management, and message multiplexing.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/resilience"
	"flexric/internal/trace"
	"flexric/internal/transport"
)

// AgentID identifies a connected agent within a server.
type AgentID int

// AgentInfo describes a connected agent, as recorded by RAN management.
type AgentInfo struct {
	ID        AgentID
	NodeID    e2ap.GlobalE2NodeID
	Functions []e2ap.RANFunctionItem
	Addr      string
}

// HasFunction reports whether the agent exposes RAN function id.
func (a AgentInfo) HasFunction(id uint16) bool {
	for _, f := range a.Functions {
		if f.ID == id {
			return true
		}
	}
	return false
}

// IndicationEvent delivers one indication to a subscribing iApp. Env is
// the codec envelope: with the FB scheme the SM payload is read directly
// from the wire bytes with no decode pass.
type IndicationEvent struct {
	Agent AgentID
	Env   e2ap.Envelope
	// Trace is the dispatch-stage context: a child of the trace the
	// agent stamped into the indication. Callbacks parent their own
	// spans under it; zero when the indication was not sampled.
	Trace trace.Context
}

// SubscriptionCallbacks receive the outcome and data of a subscription.
// Callbacks run on the agent connection's receive goroutine: they must
// not block; hand off to a worker if processing is slow (§4.4 sketches
// exactly this multi-thread extension).
type SubscriptionCallbacks struct {
	OnAdmitted   func(resp *e2ap.SubscriptionResponse)
	OnFailure    func(cause e2ap.Cause)
	OnIndication func(ev IndicationEvent)
	OnDeleted    func()
}

// SubID identifies a subscription created through the server.
type SubID struct {
	Agent AgentID
	Req   e2ap.RequestID
}

// Config parameterizes a Server.
type Config struct {
	// RICID is announced in setup responses.
	RICID e2ap.GlobalRICID
	// Scheme selects the E2AP encoding (default SchemeASN).
	Scheme e2ap.Scheme
	// Transport selects the wire transport (default KindSCTPish).
	Transport transport.Kind
	// DialTimeout bounds connection establishment from the server's
	// side: an accepted connection must complete the E2 setup handshake
	// within this window instead of pinning a goroutine forever. 0
	// means transport.DefaultDialTimeout, the same default the dialing
	// side uses.
	DialTimeout time.Duration
	// Resilience enables keepalives and dead-peer detection on agent
	// associations, plus retention and replay of a disconnected agent's
	// subscriptions when it reconnects (see OnAgentReconnect). nil
	// keeps the seed behavior: a disconnect drops all agent state
	// immediately.
	Resilience *resilience.Config
	// WrapListener, when non-nil, wraps the south-bound listener before
	// use — the fault injection hook (internal/faultinject).
	WrapListener func(transport.Listener) transport.Listener
}

func (c *Config) defaults() {
	if c.Scheme == "" {
		c.Scheme = e2ap.SchemeASN
	}
	if c.Transport == "" {
		c.Transport = transport.KindSCTPish
	}
}

// Server is a FlexRIC controller core.
type Server struct {
	cfg Config
	// res is the resolved resilience config; nil when disabled.
	res *resilience.Config

	lis transport.Listener

	mu     sync.Mutex
	agents map[AgentID]*agentConn
	nextID AgentID
	randb  *RANDB
	// retained holds disconnected agents whose subscriptions are kept
	// for replay, keyed by node identity (see resilience.go).
	retained map[e2ap.GlobalE2NodeID]*retainedAgent

	subs *subManager

	onConnect    []func(AgentInfo)
	onDisconnect []func(AgentInfo)
	onReconnect  []func(AgentInfo)

	closed atomic.Bool
	wg     sync.WaitGroup

	txSeq atomic.Uint32
}

// ErrClosed reports use of a closed server.
var ErrClosed = errors.New("server: closed")

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:      cfg,
		agents:   make(map[AgentID]*agentConn),
		randb:    newRANDB(),
		retained: make(map[e2ap.GlobalE2NodeID]*retainedAgent),
		subs:     newSubManager(),
	}
	if cfg.Resilience != nil {
		r := cfg.Resilience.WithDefaults()
		s.res = &r
	}
	return s
}

// Start binds the south-bound listener and begins accepting agents. It
// returns the bound address (useful with ":0").
func (s *Server) Start(addr string) (string, error) {
	lis, err := transport.Listen(s.cfg.Transport, addr)
	if err != nil {
		return "", err
	}
	if s.cfg.WrapListener != nil {
		lis = s.cfg.WrapListener(lis)
	}
	s.lis = lis
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			tc, err := lis.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveAgent(tc)
			}()
		}
	}()
	return lis.Addr(), nil
}

// Close stops the server and disconnects all agents. Retained
// (suspended) agents are dropped as if their retention expired.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.lis != nil {
		s.lis.Close()
	}
	s.mu.Lock()
	conns := make([]*agentConn, 0, len(s.agents))
	for _, c := range s.agents {
		conns = append(conns, c)
	}
	// Retention timers whose Stop succeeds are dropped here; a timer
	// that already fired is completing its own drop concurrently.
	var expired []*retainedAgent
	for nodeID, e := range s.retained {
		if e.expire.Stop() {
			delete(s.retained, nodeID)
			expired = append(expired, e)
		}
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.tc.Close()
	}
	for _, e := range expired {
		s.dropRetained(e)
	}
	s.wg.Wait()
	return nil
}

// OnAgentConnect registers a RAN-management event hook, fired after E2
// setup completes. "An application that subscribed for new agent
// connections uses the included information to send a subscription if it
// encounters suitable RAN functions" (§4.2.2).
func (s *Server) OnAgentConnect(f func(AgentInfo)) {
	s.mu.Lock()
	s.onConnect = append(s.onConnect, f)
	s.mu.Unlock()
}

// OnAgentDisconnect registers a hook fired when an agent's connection
// drops. With resilience enabled the hook is deferred: a disconnected
// agent is first suspended (subscriptions retained for replay), and the
// hook fires only if retention expires without a reconnect.
func (s *Server) OnAgentDisconnect(f func(AgentInfo)) {
	s.mu.Lock()
	s.onDisconnect = append(s.onDisconnect, f)
	s.mu.Unlock()
}

// OnAgentReconnect registers a hook fired when a suspended agent
// re-associates. By the time the hook runs, the server has already
// replayed the agent's retained subscriptions under their original
// request IDs, so existing SubIDs and callbacks keep working; the hook
// is for applications that track liveness. Requires Config.Resilience.
func (s *Server) OnAgentReconnect(f func(AgentInfo)) {
	s.mu.Lock()
	s.onReconnect = append(s.onReconnect, f)
	s.mu.Unlock()
}

// OnRANComplete registers a hook fired when a RAN entity becomes complete
// (monolithic node connected, or both CU and DU of a split station).
func (s *Server) OnRANComplete(f func(RANEntity)) { s.randb.onComplete(f) }

// RANDB exposes the RAN database for queries about the network
// composition.
func (s *Server) RANDB() *RANDB { return s.randb }

// Agents lists the currently connected agents.
func (s *Server) Agents() []AgentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]AgentInfo, 0, len(s.agents))
	for _, c := range s.agents {
		out = append(out, c.info)
	}
	return out
}

// Subscribe sends a subscription request on behalf of an iApp. The
// callbacks deliver the outcome and subsequent indications.
func (s *Server) Subscribe(agent AgentID, fnID uint16, trigger []byte, actions []e2ap.Action, cb SubscriptionCallbacks) (SubID, error) {
	c := s.agent(agent)
	if c == nil {
		return SubID{}, fmt.Errorf("server: no agent %d", agent)
	}
	req := s.subs.create(agent, fnID, trigger, actions, cb)
	// Root of the subscription trace; the context rides the request so
	// the agent's fill span links under it.
	sp := trace.StartRoot("server.subscribe")
	msg := &e2ap.SubscriptionRequest{
		RequestID:     req,
		RANFunctionID: fnID,
		EventTrigger:  trigger,
		Actions:       actions,
		Trace:         sp.Context(),
	}
	err := c.send(msg)
	sp.End()
	if err != nil {
		s.subs.remove(SubID{Agent: agent, Req: req})
		return SubID{}, err
	}
	return SubID{Agent: agent, Req: req}, nil
}

// Unsubscribe sends a subscription delete request. The subscription's
// OnDeleted callback fires when the agent confirms.
func (s *Server) Unsubscribe(id SubID, fnID uint16) error {
	c := s.agent(id.Agent)
	if c == nil {
		return fmt.Errorf("server: no agent %d", id.Agent)
	}
	return c.send(&e2ap.SubscriptionDeleteRequest{RequestID: id.Req, RANFunctionID: fnID})
}

// Control sends a control request. When ack is true, done is invoked
// with the outcome (or error) once the agent replies; with ack false,
// done may be nil and nothing is awaited.
func (s *Server) Control(agent AgentID, fnID uint16, header, payload []byte, ack bool, done func(outcome []byte, err error)) error {
	_, err := s.control(agent, fnID, header, payload, ack, done)
	return err
}

// controlTimeout bounds how long ControlWait waits for the agent's
// answer.
var controlTimeout = 5 * time.Second

// ControlWait sends an acknowledged control request and blocks until
// the agent answers or controlTimeout passes. A control that times out
// is forgotten: a late answer finds no pending entry.
func (s *Server) ControlWait(agent AgentID, fnID uint16, header, payload []byte) ([]byte, error) {
	type result struct {
		out []byte
		err error
	}
	ch := make(chan result, 1)
	req, err := s.control(agent, fnID, header, payload, true,
		func(out []byte, err error) { ch <- result{out, err} })
	id := SubID{Agent: agent, Req: req}
	if err != nil {
		s.subs.takeControl(id)
		return nil, err
	}
	timeout := time.NewTimer(controlTimeout)
	defer timeout.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timeout.C:
		s.subs.takeControl(id)
		return nil, fmt.Errorf("server: control of function %d on agent %d timed out", fnID, agent)
	}
}

func (s *Server) control(agent AgentID, fnID uint16, header, payload []byte, ack bool, done func(outcome []byte, err error)) (e2ap.RequestID, error) {
	c := s.agent(agent)
	if c == nil {
		return e2ap.RequestID{}, fmt.Errorf("server: no agent %d", agent)
	}
	var req e2ap.RequestID
	if ack && done != nil {
		req = s.subs.createControl(agent, done)
	} else {
		req = s.subs.nextFireAndForget()
	}
	sp := trace.StartRoot("server.control")
	err := c.send(&e2ap.ControlRequest{
		RequestID:     req,
		RANFunctionID: fnID,
		Header:        header,
		Payload:       payload,
		AckRequested:  ack,
		Trace:         sp.Context(),
	})
	sp.End()
	return req, err
}

func (s *Server) agent(id AgentID) *agentConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agents[id]
}

// Scheme returns the server's E2AP encoding scheme.
func (s *Server) Scheme() e2ap.Scheme { return s.cfg.Scheme }

// NumSubscriptions returns the count of live subscriptions across all
// agents — part of the topology snapshot the control room renders.
func (s *Server) NumSubscriptions() int {
	s.subs.mu.Lock()
	defer s.subs.mu.Unlock()
	return len(s.subs.subs)
}
