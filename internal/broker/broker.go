// Package broker implements a Redis-like publish/subscribe message
// broker. The paper's traffic-control specialization uses Redis as the
// northbound message broker between the stats-forwarding iApp and the TC
// xApp (Table 3); this package provides the same decoupling on the
// stdlib: a broker server speaking a small framed protocol, and a client
// with Publish and Subscribe.
package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"flexric/internal/trace"
	"flexric/internal/transport"
)

// ErrClosed reports use of a closed broker or client.
var ErrClosed = errors.New("broker: closed")

// Frame verbs.
const (
	verbSubscribe   = 1
	verbUnsubscribe = 2
	verbPublish     = 3
	verbMessage     = 4 // broker → subscriber delivery
	// Traced variants carry a 16-byte trace context (TraceID, SpanID,
	// big-endian) between the channel name and the payload, so a trace
	// started in the E2 path survives the broker hop to xApps.
	verbPublishT = 5
	verbMessageT = 6
)

// traceCtxSize is the wire size of a trace context on traced frames.
const traceCtxSize = 16

// appendFrame appends [verb][u16 channel len][channel][payload] to dst
// (which may be nil) and returns the extended slice — the append-style
// builder that lets publish paths reuse one wire buffer per client.
func appendFrame(dst []byte, verb byte, channel string, payload []byte) []byte {
	dst = append(dst, verb, byte(len(channel)>>8), byte(len(channel)))
	dst = append(dst, channel...)
	return append(dst, payload...)
}

// appendTracedFrame is appendFrame with the trace context spliced in
// front of the payload.
func appendTracedFrame(dst []byte, verb byte, channel string, tc trace.Context, payload []byte) []byte {
	dst = append(dst, verb, byte(len(channel)>>8), byte(len(channel)))
	dst = append(dst, channel...)
	var ctx [traceCtxSize]byte
	binary.BigEndian.PutUint64(ctx[:], tc.TraceID)
	binary.BigEndian.PutUint64(ctx[8:], tc.SpanID)
	dst = append(dst, ctx[:]...)
	return append(dst, payload...)
}

// encodeFrame builds a frame in a fresh buffer.
func encodeFrame(verb byte, channel string, payload []byte) []byte {
	return appendFrame(nil, verb, channel, payload)
}

// appendFrameBytes / appendTracedFrameBytes duplicate the builders for a
// channel still in wire-view ([]byte) form: the broker's fan-out path
// would otherwise pay a string conversion allocation per publish.
func appendFrameBytes(dst []byte, verb byte, channel, payload []byte) []byte {
	dst = append(dst, verb, byte(len(channel)>>8), byte(len(channel)))
	dst = append(dst, channel...)
	return append(dst, payload...)
}

func appendTracedFrameBytes(dst []byte, verb byte, channel []byte, tc trace.Context, payload []byte) []byte {
	dst = append(dst, verb, byte(len(channel)>>8), byte(len(channel)))
	dst = append(dst, channel...)
	var ctx [traceCtxSize]byte
	binary.BigEndian.PutUint64(ctx[:], tc.TraceID)
	binary.BigEndian.PutUint64(ctx[8:], tc.SpanID)
	dst = append(dst, ctx[:]...)
	return append(dst, payload...)
}

// splitTraced separates the trace context from a traced frame's payload.
func splitTraced(payload []byte) (trace.Context, []byte, error) {
	if len(payload) < traceCtxSize {
		return trace.Context{}, nil, fmt.Errorf("broker: short traced frame")
	}
	tc := trace.Context{
		TraceID: binary.BigEndian.Uint64(payload),
		SpanID:  binary.BigEndian.Uint64(payload[8:]),
	}
	return tc, payload[traceCtxSize:], nil
}

// decodeFrame splits a frame into views of b: the channel stays a byte
// slice so the per-message hot paths never allocate a string — map
// lookups via m[string(channel)] compile to allocation-free probes, and
// only a first-time Subscribe materializes the name.
func decodeFrame(b []byte) (verb byte, channel, payload []byte, err error) {
	if len(b) < 3 {
		return 0, nil, nil, fmt.Errorf("broker: short frame")
	}
	n := int(binary.BigEndian.Uint16(b[1:]))
	if 3+n > len(b) {
		return 0, nil, nil, fmt.Errorf("broker: bad channel length")
	}
	return b[0], b[3 : 3+n], b[3+n:], nil
}

// Server is the broker process.
type Server struct {
	lis transport.Listener

	mu   sync.Mutex
	subs map[string]map[*serverConn]bool

	wg sync.WaitGroup
}

type serverConn struct {
	tc     transport.Conn
	sendMu sync.Mutex
}

// NewServer starts a broker on addr, returning it and its bound address.
func NewServer(addr string) (*Server, string, error) {
	lis, err := transport.Listen(transport.KindSCTPish, addr)
	if err != nil {
		return nil, "", err
	}
	s := &Server{lis: lis, subs: make(map[string]map[*serverConn]bool)}
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
				s.serve(&serverConn{tc: tc})
			}()
		}
	}()
	return s, lis.Addr(), nil
}

// Close stops the broker.
func (s *Server) Close() error {
	s.lis.Close()
	s.mu.Lock()
	seen := make(map[*serverConn]bool)
	for _, conns := range s.subs {
		for c := range conns {
			seen[c] = true
		}
	}
	s.mu.Unlock()
	for c := range seen {
		c.tc.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) serve(c *serverConn) {
	defer func() {
		s.mu.Lock()
		for _, conns := range s.subs {
			delete(conns, c)
		}
		s.mu.Unlock()
		c.tc.Close()
	}()
	// Receive frames through the recycled-buffer path and build delivery
	// frames in a per-connection scratch: a steady publish stream is
	// served without allocating. dsts is snapshotted under the lock so
	// slow subscriber sends don't serialize subscription changes.
	var buf, out []byte
	var dsts []*serverConn
	for {
		wire, err := c.tc.Recv(buf)
		if err != nil {
			return
		}
		buf = wire
		verb, channel, payload, err := decodeFrame(wire)
		if err != nil {
			continue
		}
		switch verb {
		case verbSubscribe:
			s.mu.Lock()
			if s.subs[string(channel)] == nil {
				s.subs[string(channel)] = make(map[*serverConn]bool)
			}
			s.subs[string(channel)][c] = true
			s.mu.Unlock()
		case verbUnsubscribe:
			s.mu.Lock()
			delete(s.subs[string(channel)], c)
			s.mu.Unlock()
		case verbPublish, verbPublishT:
			t0 := time.Now()
			brokerTel.published.Inc()
			var sp trace.Span
			if verb == verbPublishT {
				tc, rest, err := splitTraced(payload)
				if err != nil {
					continue
				}
				// Fan-out span, child of the publisher's broker.publish;
				// its context rides the delivery so subscribers can link
				// further spans under it.
				sp = trace.StartChild(tc, "broker.fanout")
				out = appendTracedFrameBytes(out[:0], verbMessageT, channel, sp.Context(), rest)
			} else {
				out = appendFrameBytes(out[:0], verbMessage, channel, payload)
			}
			s.mu.Lock()
			dsts = dsts[:0]
			for dst := range s.subs[string(channel)] {
				dsts = append(dsts, dst)
			}
			s.mu.Unlock()
			for _, dst := range dsts {
				dst.sendMu.Lock()
				err := dst.tc.Send(out)
				dst.sendMu.Unlock()
				if err == nil {
					brokerTel.delivered.Inc()
				}
			}
			sp.End()
			brokerTel.fanoutLat.Observe(time.Since(t0))
		}
	}
}

// Message is one delivered publication.
type Message struct {
	Channel string
	Payload []byte
	// Trace is the broker fan-out context when the publication was
	// traced (PublishTraced); zero otherwise.
	Trace trace.Context
}

// clientSub is one channel's local subscription state. name is the
// canonical channel-name string, allocated once at Subscribe time and
// shared by every delivered Message, so deliveries never re-materialize
// the name from the wire.
type clientSub struct {
	name  string
	chans []chan Message
}

// Client is a broker client. Safe for concurrent use.
type Client struct {
	tc     transport.Conn
	sendMu sync.Mutex
	// pub is the publish frame scratch, reused under sendMu.
	pub []byte

	mu   sync.Mutex
	subs map[string]*clientSub

	closed bool
	done   chan struct{}
}

// Dial connects a client to a broker.
func Dial(addr string) (*Client, error) {
	tc, err := transport.Dial(transport.KindSCTPish, addr)
	if err != nil {
		return nil, err
	}
	c := &Client{tc: tc, subs: make(map[string]*clientSub), done: make(chan struct{})}
	go c.recvLoop()
	return c, nil
}

// Close disconnects the client; subscription channels are closed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	return c.tc.Close()
}

// recvLoop delivers broker messages to local subscribers. It reads with
// Recv(nil) deliberately: each frame arrives in a buffer the loop owns
// exclusively and never recycles, so a single subscriber can be handed a
// view of the wire itself — the copy is paid only when several local
// subscribers share a channel and must not see each other's payload as
// aliased mutable state.
func (c *Client) recvLoop() {
	for {
		wire, err := c.tc.Recv(nil)
		if err != nil {
			c.mu.Lock()
			for _, sub := range c.subs {
				for _, ch := range sub.chans {
					close(ch)
				}
			}
			c.subs = make(map[string]*clientSub)
			c.mu.Unlock()
			return
		}
		verb, channel, payload, err := decodeFrame(wire)
		if err != nil {
			continue
		}
		var tc trace.Context
		if verb == verbMessageT {
			if tc, payload, err = splitTraced(payload); err != nil {
				continue
			}
		} else if verb != verbMessage {
			continue
		}
		// Deliver under the lock: the channel sends below never block
		// (select with default), and holding it removes the per-message
		// snapshot allocation of the subscriber list.
		c.mu.Lock()
		sub := c.subs[string(channel)]
		if sub == nil || len(sub.chans) == 0 {
			c.mu.Unlock()
			continue
		}
		if len(sub.chans) > 1 {
			payload = append([]byte(nil), payload...)
		}
		msg := Message{Channel: sub.name, Payload: payload, Trace: tc}
		for _, ch := range sub.chans {
			select {
			case ch <- msg:
				brokerTel.clientDeliver.Inc()
			default: // slow subscriber: drop, like Redis pub/sub
				brokerTel.clientDropped.Inc()
			}
		}
		c.mu.Unlock()
	}
}

// Publish sends payload to every subscriber of channel. The wire frame
// is built in a client-owned scratch buffer: steady publishing does not
// allocate.
func (c *Client) Publish(channel string, payload []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.pub = appendFrame(c.pub[:0], verbPublish, channel, payload)
	return c.tc.Send(c.pub)
}

// PublishTraced is Publish linked into a trace: it records a
// "broker.publish" span under tc and carries the context to the broker,
// which records its fan-out and forwards the context to subscribers.
// With an invalid context it degrades to plain Publish, so call sites
// need no branching.
func (c *Client) PublishTraced(channel string, payload []byte, tc trace.Context) error {
	if !tc.Valid() {
		return c.Publish(channel, payload)
	}
	sp := trace.StartChild(tc, "broker.publish")
	c.sendMu.Lock()
	c.pub = appendTracedFrame(c.pub[:0], verbPublishT, channel, sp.Context(), payload)
	err := c.tc.Send(c.pub)
	c.sendMu.Unlock()
	sp.End()
	return err
}

// Subscribe registers for a channel, returning a buffered delivery
// channel. Messages overflowing the buffer are dropped (Redis pub/sub
// semantics).
func (c *Client) Subscribe(channel string, depth int) (<-chan Message, error) {
	if depth <= 0 {
		depth = 256
	}
	ch := make(chan Message, depth)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	sub := c.subs[channel]
	if sub == nil {
		sub = &clientSub{name: channel}
		c.subs[channel] = sub
	}
	first := len(sub.chans) == 0
	sub.chans = append(sub.chans, ch)
	c.mu.Unlock()
	if first {
		c.sendMu.Lock()
		err := c.tc.Send(encodeFrame(verbSubscribe, channel, nil))
		c.sendMu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return ch, nil
}
