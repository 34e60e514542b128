// Package agent implements the FlexRIC agent library (§4.1): the
// component that extends a base station with E2 connectivity. It provides
// the networking interface, the E2AP abstraction, the message handler,
// the generic RAN function API, and multi-controller support with a
// UE-to-controller association (§4.1.2).
//
// The agent library is deliberately independent of any user-plane
// implementation: RAN functions are the only point of contact with the
// base station, keeping the library RAT- and vendor-neutral.
package agent

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/resilience"
	"flexric/internal/transport"
)

// ControllerID identifies one of the agent's controller connections. The
// first controller (index 0) is the primary; UEs are associated to it by
// default (§4.1.2: "the agent library associates every UE to the first
// controller").
type ControllerID int

// RANFunction is the generic RAN function API (§4.1.1): "this API defines
// callbacks for E2AP messages, i.e., (i) subscription requests, (ii)
// subscription delete request, and (iii) control messages, which need to
// be implemented by RAN functions."
//
// Callbacks run on the connection's receive goroutine; implementations
// must be safe for concurrent use with the base station's processing.
type RANFunction interface {
	// Definition describes the function for E2 setup.
	Definition() e2ap.RANFunctionItem
	// OnSubscription handles a subscription request. A nil error admits
	// all requested actions.
	OnSubscription(ctrl ControllerID, req *e2ap.SubscriptionRequest, tx IndicationSender) error
	// OnSubscriptionDelete removes a subscription.
	OnSubscriptionDelete(ctrl ControllerID, req *e2ap.SubscriptionDeleteRequest) error
	// OnControl executes an SM-specific action and optionally returns an
	// outcome payload.
	OnControl(ctrl ControllerID, req *e2ap.ControlRequest) (outcome []byte, err error)
}

// IndicationSender lets a RAN function emit indication messages for an
// admitted subscription. It remains valid until the subscription is
// deleted or the controller disconnects.
type IndicationSender interface {
	// SendIndication transmits an SM report/insert. The header and
	// payload are SM-encoded (E2's inner encoding pass).
	SendIndication(actionID uint8, class e2ap.IndicationClass, header, payload []byte) error
	// Controller identifies the subscribing controller.
	Controller() ControllerID
}

// Config parameterizes an Agent.
type Config struct {
	// NodeID is the agent's global E2 node identity.
	NodeID e2ap.GlobalE2NodeID
	// Scheme selects the E2AP encoding (default SchemeASN, the O-RAN
	// standard; SchemeFB is the low-CPU alternative of §4.3).
	Scheme e2ap.Scheme
	// Transport selects the wire transport (default KindSCTPish).
	Transport transport.Kind
	// Components describes the node's component configuration, sent in
	// the setup request.
	Components []e2ap.E2NodeComponentConfig
	// DialTimeout bounds connection establishment and, separately, the
	// wait for the E2 setup reply, per Connect (and per reconnect
	// attempt). 0 means transport.DefaultDialTimeout.
	DialTimeout time.Duration
	// Resilience enables keepalives, dead-peer detection, and the
	// reconnect supervisor (capped exponential backoff, E2 setup re-run,
	// transparent transport swap under live indication senders). nil
	// keeps the fail-fast behavior: a dropped connection ends the
	// receive loop for good.
	Resilience *resilience.Config
	// WrapConn, when non-nil, wraps every dialed transport connection
	// before the E2 handshake and the resilience layer — the fault
	// injection hook (internal/faultinject).
	WrapConn func(transport.Conn) transport.Conn
	// Rehome, when non-nil, picks the controller address for each
	// reconnect attempt: attempt is the consecutive-failure count (0 on
	// the first redial after a drop) and last the most recent address.
	// The federation tier plugs a consistent-hash Placer in here so an
	// agent whose shard died walks its preference order to the ring
	// successor — and walks home again once the full cycle retries the
	// owner. nil keeps redialing the original address.
	Rehome func(attempt int, last string) string
}

func (c *Config) defaults() {
	if c.Scheme == "" {
		c.Scheme = e2ap.SchemeASN
	}
	if c.Transport == "" {
		c.Transport = transport.KindSCTPish
	}
}

// Agent connects a base station to one or more E2 controllers.
type Agent struct {
	cfg Config
	// res is the resolved resilience config; nil when disabled.
	res *resilience.Config

	mu    sync.Mutex
	fns   map[uint16]RANFunction
	conns []*conn
	// ueExposure maps RNTI → set of additional controllers the UE is
	// exposed to. Controller 0 sees every UE (§4.1.2).
	ueExposure map[uint16]map[ControllerID]bool

	closed atomic.Bool
	// closeCh unblocks reconnect supervisors sleeping in backoff.
	closeCh chan struct{}
	wg      sync.WaitGroup

	txSeq atomic.Uint32 // transaction IDs
}

// ErrClosed reports use of a closed agent.
var ErrClosed = errors.New("agent: closed")

// New returns an Agent with the given configuration.
func New(cfg Config) *Agent {
	cfg.defaults()
	a := &Agent{
		cfg:        cfg,
		fns:        make(map[uint16]RANFunction),
		ueExposure: make(map[uint16]map[ControllerID]bool),
		closeCh:    make(chan struct{}),
	}
	if cfg.Resilience != nil {
		r := cfg.Resilience.WithDefaults()
		a.res = &r
	}
	return a
}

// RegisterFunction adds a RAN function. Functions must be registered
// before Connect; the set is announced in the E2 setup request.
func (a *Agent) RegisterFunction(fn RANFunction) error {
	def := fn.Definition()
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.fns[def.ID]; dup {
		return fmt.Errorf("agent: duplicate RAN function %d", def.ID)
	}
	a.fns[def.ID] = fn
	return nil
}

// Functions returns the registered RAN function definitions.
func (a *Agent) Functions() []e2ap.RANFunctionItem {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]e2ap.RANFunctionItem, 0, len(a.fns))
	for _, fn := range a.fns {
		out = append(out, fn.Definition())
	}
	return out
}

// Connect dials a controller, performs E2 setup, and starts the receive
// loop. The first call establishes the primary controller (ID 0);
// subsequent calls add controllers for multi-service scenarios (§4.1.2).
// It returns the new controller's ID.
func (a *Agent) Connect(addr string) (ControllerID, error) {
	if a.closed.Load() {
		return 0, ErrClosed
	}
	tc, err := a.dialAndSetup(addr)
	if err != nil {
		return 0, err
	}
	c := &conn{
		agent: a,
		addr:  addr,
		tc:    tc,
		enc:   e2ap.MustCodec(a.cfg.Scheme),
		dec:   e2ap.MustCodec(a.cfg.Scheme),
	}

	a.mu.Lock()
	c.id = ControllerID(len(a.conns))
	a.conns = append(a.conns, c)
	a.mu.Unlock()

	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		if a.res != nil {
			c.supervise()
		} else {
			c.recvLoop()
		}
	}()
	return c.id, nil
}

// dialAndSetup establishes one controller association: dial (bounded by
// Config.DialTimeout), the optional fault wrap, the synchronous E2 setup
// handshake announcing the currently registered RAN functions, and the
// optional resilience wrap. The handshake's receive is bounded by the
// same timeout, as the server bounds its side, so a controller that
// accepts and never answers fails Connect instead of hanging it; once
// the association is live, keepalives and dead-peer detection police
// it. The handshake uses a dedicated codec: on a reconnect the conn's
// codecs may be busy under concurrent senders.
func (a *Agent) dialAndSetup(addr string) (transport.Conn, error) {
	tc, err := transport.DialTimeout(a.cfg.Transport, addr, a.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	if a.cfg.WrapConn != nil {
		tc = a.cfg.WrapConn(tc)
	}
	if err := a.setup(tc); err != nil {
		tc.Close()
		return nil, err
	}
	if a.res != nil {
		tc = a.res.WrapConn(tc)
	}
	return tc, nil
}

// setup runs the E2 setup handshake on tc under a receive deadline of
// Config.DialTimeout, cleared once the reply is in.
func (a *Agent) setup(tc transport.Conn) error {
	timeout := a.cfg.DialTimeout
	if timeout <= 0 {
		timeout = transport.DefaultDialTimeout
	}
	if err := tc.SetRecvDeadline(time.Now().Add(timeout)); err != nil {
		return fmt.Errorf("agent: setup deadline: %w", err)
	}
	cod := e2ap.MustCodec(a.cfg.Scheme)
	wire, err := cod.Encode(&e2ap.SetupRequest{
		TransactionID: uint8(a.txSeq.Add(1)),
		NodeID:        a.cfg.NodeID,
		RANFunctions:  a.Functions(),
		Components:    a.cfg.Components,
	})
	if err != nil {
		return fmt.Errorf("agent: setup encode: %w", err)
	}
	if err := tc.Send(wire); err != nil {
		return fmt.Errorf("agent: setup send: %w", err)
	}
	// Synchronous setup response, as the E2 setup procedure is the
	// association handshake.
	reply, err := tc.Recv(nil)
	if err != nil {
		return fmt.Errorf("agent: setup recv: %w", err)
	}
	pdu, err := cod.Decode(reply)
	if err != nil {
		return fmt.Errorf("agent: setup decode: %w", err)
	}
	switch m := pdu.(type) {
	case *e2ap.SetupResponse:
		return tc.SetRecvDeadline(time.Time{})
	case *e2ap.SetupFailure:
		return fmt.Errorf("agent: setup rejected: %v", m.Cause)
	default:
		return fmt.Errorf("agent: unexpected setup reply %s", pdu.MsgType())
	}
}

// Close terminates all controller connections.
func (a *Agent) Close() error {
	if a.closed.Swap(true) {
		return nil
	}
	close(a.closeCh)
	a.mu.Lock()
	conns := append([]*conn(nil), a.conns...)
	a.mu.Unlock()
	for _, c := range conns {
		c.closeTransport()
	}
	a.wg.Wait()
	return nil
}

// Controllers returns the number of connected controllers.
func (a *Agent) Controllers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.conns)
}

// ExposeUE exposes a UE to an additional controller. Controller 0 sees
// all UEs implicitly; for others the association must be configured
// explicitly — typically triggered by a controller that learned the
// UE-to-service mapping from the CU (Fig. 4).
func (a *Agent) ExposeUE(ctrl ControllerID, rnti uint16) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.ueExposure[rnti]
	if m == nil {
		m = make(map[ControllerID]bool)
		a.ueExposure[rnti] = m
	}
	m[ctrl] = true
}

// HideUE removes a UE's exposure to an additional controller.
func (a *Agent) HideUE(ctrl ControllerID, rnti uint16) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if m := a.ueExposure[rnti]; m != nil {
		delete(m, ctrl)
	}
}

// UEVisible reports whether a RAN function handling a message from ctrl
// may reveal the UE. This is the lookup RAN functions use "when handling
// messages ... to look up and reveal the UEs that belong to the
// corresponding controllers" (§4.1.2).
func (a *Agent) UEVisible(ctrl ControllerID, rnti uint16) bool {
	if ctrl == 0 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ueExposure[rnti][ctrl]
}

func (a *Agent) fn(id uint16) RANFunction {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fns[id]
}
