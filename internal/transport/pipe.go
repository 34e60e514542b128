package transport

import (
	"fmt"
	"sync"
	"time"

	"flexric/internal/bufpool"
)

// The pipe transport exchanges messages over in-process channels. It is
// the zero-overhead configuration for co-located controller/agent
// deployments and makes tests deterministic and fast.

// pipeBufDepth bounds in-flight messages per direction, emulating a
// socket buffer: senders block when the peer falls behind.
const pipeBufDepth = 1024

var pipeNS = struct {
	sync.Mutex
	listeners map[string]*pipeListener
}{listeners: make(map[string]*pipeListener)}

type pipeListener struct {
	name   string
	accept chan *pipeConn
	done   chan struct{}
	once   sync.Once
}

func pipeListen(name string) (Listener, error) {
	pipeNS.Lock()
	defer pipeNS.Unlock()
	if _, ok := pipeNS.listeners[name]; ok {
		return nil, fmt.Errorf("transport: pipe %q already bound", name)
	}
	l := &pipeListener{
		name:   name,
		accept: make(chan *pipeConn),
		done:   make(chan struct{}),
	}
	pipeNS.listeners[name] = l
	return l, nil
}

func pipeDial(name string) (Conn, error) {
	pipeNS.Lock()
	l, ok := pipeNS.listeners[name]
	pipeNS.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no pipe listener %q", name)
	}
	a2b := make(chan []byte, pipeBufDepth)
	b2a := make(chan []byte, pipeBufDepth)
	done := make(chan struct{})
	once := new(sync.Once) // shared: closing either end closes both exactly once
	client := &pipeConn{peer: "pipe:" + name, send: a2b, recv: b2a, done: done, once: once, stats: newConnStats(KindPipe)}
	server := &pipeConn{peer: "pipe-client:" + name, send: b2a, recv: a2b, done: done, once: once, stats: newConnStats(KindPipe)}
	// Closing either end tears down both, so the shared close drops both
	// per-conn telemetry subtrees.
	closeBoth := func() {
		close(done)
		client.stats.close()
		server.stats.close()
	}
	client.closeFn = closeBoth
	server.closeFn = closeBoth
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Accept implements Listener.
func (l *pipeListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close implements Listener.
func (l *pipeListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		pipeNS.Lock()
		delete(pipeNS.listeners, l.name)
		pipeNS.Unlock()
	})
	return nil
}

// Addr implements Listener. It returns the pipe name unadorned so the
// result can be passed back to Dial.
func (l *pipeListener) Addr() string { return l.name }

type pipeConn struct {
	peer    string
	send    chan<- []byte
	recv    <-chan []byte
	done    chan struct{}
	once    *sync.Once
	closeFn func()
	stats   connStats

	deadlineMu sync.Mutex
	deadline   time.Time
}

// Send implements Conn. The message is copied (into a pooled buffer the
// receive side can recycle via Recv), matching the socket transport's
// "does not retain b" contract.
func (p *pipeConn) Send(b []byte) error {
	if len(b) > MaxMessageSize {
		return ErrMessageTooLarge
	}
	// A closed conn must refuse sends deterministically: without this
	// check the select below could still win the (buffered) send case
	// after Close.
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	t0 := time.Now()
	msg := bufpool.Get(len(b))
	copy(msg, b)
	select {
	case p.send <- msg:
		p.stats.sent(len(b), time.Since(t0))
		return nil
	case <-p.done:
		return ErrClosed
	}
}

// SendBatch implements Conn. The pipe has no syscall to coalesce,
// so the win is a single closed-check and timestamp for the whole batch;
// semantically it is exactly N Sends.
func (p *pipeConn) SendBatch(msgs [][]byte) error {
	if len(msgs) == 0 {
		return nil
	}
	total := 0
	for _, b := range msgs {
		if len(b) > MaxMessageSize {
			return ErrMessageTooLarge
		}
		total += len(b)
	}
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	t0 := time.Now()
	for _, b := range msgs {
		msg := bufpool.Get(len(b))
		copy(msg, b)
		select {
		case p.send <- msg:
		case <-p.done:
			bufpool.Put(msg)
			return ErrClosed
		}
	}
	p.stats.sentBatch(len(msgs), total, time.Since(t0))
	return nil
}

// SetRecvDeadline implements Conn.
func (p *pipeConn) SetRecvDeadline(t time.Time) error {
	p.deadlineMu.Lock()
	p.deadline = t
	p.deadlineMu.Unlock()
	return nil
}

// Recv implements Conn. Messages cross the pipe as pooled buffers
// handed over whole, so recycling means returning dst to the pool —
// where the peer's next Send picks it up — and receiving a fresh
// handoff. This balances Send's pool Get: a steady two-party exchange
// circulates a fixed set of buffers and allocates nothing.
func (p *pipeConn) Recv(dst []byte) ([]byte, error) {
	bufpool.Put(dst)
	p.deadlineMu.Lock()
	deadline := p.deadline
	p.deadlineMu.Unlock()
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		// Messages already queued beat an expired deadline, matching the
		// socket transport where buffered data is still readable.
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case m := <-p.recv:
		// elapsed < 0: an in-process handoff has no reassembly work, so
		// no receive latency is recorded (see telemetry.go).
		p.stats.received(len(m), -1)
		return m, nil
	case <-p.done:
		// Drain messages that raced with close, as a socket would deliver
		// buffered data before EOF.
		select {
		case m := <-p.recv:
			p.stats.received(len(m), -1)
			return m, nil
		default:
			return nil, ErrClosed
		}
	case <-timeout:
		select {
		case m := <-p.recv:
			p.stats.received(len(m), -1)
			return m, nil
		default:
			return nil, ErrTimeout
		}
	}
}

// LastRecvDuration implements Conn: an in-process handoff has no
// reassembly phase, so it is always 0.
func (p *pipeConn) LastRecvDuration() time.Duration { return 0 }

// Close implements Conn. Closing either end closes both.
func (p *pipeConn) Close() error {
	p.once.Do(p.closeFn)
	return nil
}

// RemoteAddr implements Conn.
func (p *pipeConn) RemoteAddr() string { return p.peer }
