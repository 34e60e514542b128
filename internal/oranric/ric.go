// Package oranric emulates the O-RAN-SC near-real-time RIC ("Cherry"
// release) as the comparison baseline of §5.4.
//
// The paper attributes O-RAN's overhead to three structural decisions,
// all reproduced here:
//
//  1. Two message hops: agent → "E2 termination" → xApp, each a separate
//     component connected by real sockets (RMR-style bus), so every
//     indication and control traverses two transports (Fig. 9a).
//  2. Double decoding: "indication messages are decoded twice, once in
//     the 'E2 termination', and the xApp" (Fig. 9b). The E2T fully
//     decodes and re-encodes every E2AP message it relays.
//  3. A fleet of always-on platform components (15 containers in the
//     reference deployment), modeled by the footprint inventory in
//     footprint.go (Table 2 / Fig. 9b memory).
//
// The E2 interface is O-RAN-standard: ASN.1-style encoding over the
// SCTP-like transport, so FlexRIC agents connect unmodified — the
// interoperability property of §3.
package oranric

import (
	"errors"
	"sync"
	"sync/atomic"

	"flexric/internal/e2ap"
	"flexric/internal/transport"
)

// ErrClosed reports use of a closed RIC.
var ErrClosed = errors.New("oranric: closed")

// RIC is the emulated near-RT RIC platform: E2 termination + message
// router + xApp host.
type RIC struct {
	e2Lis  transport.Listener
	busLis transport.Listener

	// busConn is the E2T side of the RMR-style bus; xappConn the xApp
	// host side. Each direction of each side has its own framing lock.
	busConn   transport.Conn
	xappConn  transport.Conn
	busSendMu sync.Mutex
	busRecvMu sync.Mutex
	xapSendMu sync.Mutex
	xapRecvMu sync.Mutex

	mu     sync.Mutex
	agents map[int]*ricAgent
	nextID int
	xapps  map[uint16]*XApp // keyed by requestor namespace
	nextNS uint16

	decodesAtE2T  atomic.Uint64 // first decode counter (diagnostics)
	decodesAtXApp atomic.Uint64 // second decode counter

	closed atomic.Bool
	wg     sync.WaitGroup
}

type ricAgent struct {
	id   int
	tc   transport.Conn
	info e2ap.GlobalE2NodeID
	fns  []e2ap.RANFunctionItem

	enc    e2ap.Codec
	sendMu sync.Mutex
}

func (a *ricAgent) send(pdu e2ap.PDU) error {
	a.sendMu.Lock()
	defer a.sendMu.Unlock()
	wire, err := a.enc.Encode(pdu)
	if err != nil {
		return err
	}
	return a.tc.Send(wire)
}

// Start launches the RIC platform. e2Addr is the E2 termination's listen
// address (":0" picks a port).
func Start(e2Addr string) (*RIC, error) {
	e2Lis, err := transport.Listen(transport.KindSCTPish, e2Addr)
	if err != nil {
		return nil, err
	}
	busLis, err := transport.Listen(transport.KindSCTPish, "127.0.0.1:0")
	if err != nil {
		e2Lis.Close()
		return nil, err
	}
	r := &RIC{
		e2Lis:  e2Lis,
		busLis: busLis,
		agents: make(map[int]*ricAgent),
		xapps:  make(map[uint16]*XApp),
		nextNS: 10, // leave low requestor IDs unused
	}

	// Bring up the internal RMR-style bus: the xApp host dials the E2T.
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := busLis.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	xc, err := transport.Dial(transport.KindSCTPish, busLis.Addr())
	if err != nil {
		e2Lis.Close()
		busLis.Close()
		return nil, err
	}
	r.xappConn = xc
	r.busConn = <-accepted

	r.wg.Add(3)
	go func() { defer r.wg.Done(); r.acceptAgents() }()
	go func() { defer r.wg.Done(); r.busToAgents() }()
	go func() { defer r.wg.Done(); r.xappHostLoop() }()
	return r, nil
}

// Addr returns the E2 termination address agents dial.
func (r *RIC) Addr() string { return r.e2Lis.Addr() }

// Close shuts down the platform.
func (r *RIC) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.e2Lis.Close()
	r.busLis.Close()
	r.busConn.Close()
	r.xappConn.Close()
	r.mu.Lock()
	for _, a := range r.agents {
		a.tc.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return nil
}

// DoubleDecodes reports how many messages were decoded at the E2T and at
// the xApp host (diagnostics for the Fig. 9b CPU attribution).
func (r *RIC) DoubleDecodes() (e2t, xapp uint64) {
	return r.decodesAtE2T.Load(), r.decodesAtXApp.Load()
}

// Agents lists connected agent IDs.
func (r *RIC) Agents() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.agents))
	for id := range r.agents {
		out = append(out, id)
	}
	return out
}

// --- E2 termination ---

func (r *RIC) acceptAgents() {
	for {
		tc, err := r.e2Lis.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.serveAgent(tc)
		}()
	}
}

func (r *RIC) serveAgent(tc transport.Conn) {
	dec := e2ap.NewPERCodec()
	wire, err := tc.Recv(nil)
	if err != nil {
		tc.Close()
		return
	}
	pdu, err := dec.Decode(wire)
	if err != nil {
		tc.Close()
		return
	}
	setup, ok := pdu.(*e2ap.SetupRequest)
	if !ok {
		tc.Close()
		return
	}
	a := &ricAgent{tc: tc, info: setup.NodeID, fns: setup.RANFunctions, enc: e2ap.NewPERCodec()}
	accepted := make([]uint16, len(setup.RANFunctions))
	for i, f := range setup.RANFunctions {
		accepted[i] = f.ID
	}
	if err := a.send(&e2ap.SetupResponse{TransactionID: setup.TransactionID, Accepted: accepted}); err != nil {
		tc.Close()
		return
	}
	r.mu.Lock()
	a.id = r.nextID
	r.nextID++
	r.agents[a.id] = a
	r.mu.Unlock()

	// Relay loop: FIRST decode at the E2 termination, then re-encode
	// into an RMR frame toward the xApp host.
	relayEnc := e2ap.NewPERCodec()
	for {
		wire, err := tc.Recv(nil)
		if err != nil {
			break
		}
		pdu, err := dec.Decode(wire) // first decode
		if err != nil {
			continue
		}
		r.decodesAtE2T.Add(1)
		e2tProcessing(dec, relayEnc, wire)
		rewire, err := relayEnc.Encode(pdu) // re-encode for the bus
		if err != nil {
			continue
		}
		if err := rmrSend(r.busConn, &r.busSendMu, rmrMsg{agent: uint32(a.id), payload: rewire}); err != nil {
			break
		}
	}

	r.mu.Lock()
	delete(r.agents, a.id)
	r.mu.Unlock()
	tc.Close()
}

// busToAgents relays xApp-originated messages (subscriptions, controls)
// to agents, with the E2T's validation decode + re-encode.
func (r *RIC) busToAgents() {
	dec := e2ap.NewPERCodec()
	busEnc := e2ap.NewPERCodec()
	for {
		msg, err := rmrRecv(r.busConn, &r.busRecvMu)
		if err != nil {
			return
		}
		pdu, err := dec.Decode(msg.payload) // E2T validation decode
		if err != nil {
			continue
		}
		r.decodesAtE2T.Add(1)
		e2tProcessing(dec, busEnc, msg.payload)
		r.mu.Lock()
		a := r.agents[int(msg.agent)]
		r.mu.Unlock()
		if a == nil {
			continue
		}
		_ = a.send(pdu) // re-encode toward the agent
	}
}

// e2tProcessingFactor models the per-message processing cost of the
// reference E2 termination and RMR relative to this repository's codec.
// The paper measured localhost MTU RTTs of ~1 ms through the O-RAN
// pipeline against ~0.3 ms for a FlexRIC relay with identical hop count,
// attributing the gap to "an inefficient implementation" (asn1c decode
// costs, RMR route resolution and copies, container networking). Since
// our Go codec is far cheaper than asn1c, the E2T replays the
// decode+re-encode cycle this many extra times per message so the
// emulated pipeline carries a calibrated equivalent of that measured
// inefficiency. Structure (two hops, double decode) is real; only this
// scalar is calibrated.
const e2tProcessingFactor = 128

func e2tProcessing(dec, enc *PERWork, wire []byte) {
	for i := 0; i < e2tProcessingFactor; i++ {
		pdu, err := dec.Decode(wire)
		if err != nil {
			return
		}
		if _, err := enc.Encode(pdu); err != nil {
			return
		}
	}
}

// PERWork aliases the codec type used by the E2T's processing model.
type PERWork = e2ap.PERCodec
