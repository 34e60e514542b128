// Package ws is a minimal RFC 6455 WebSocket implementation over the
// standard library — net/http Hijacker on the server side, a raw TCP
// dial on the client side, no third-party dependencies. It exists so the
// observability layer can push live telemetry to a browser control room
// (docs/CONTROLROOM.md) without growing the module's dependency graph,
// and doubles as a reusable transport for a future browser-xApp path.
//
// Scope: the subset of RFC 6455 a same-origin dashboard needs —
// handshake, masked client frames, fragmentation, interleaved control
// frames, ping/pong, and the close handshake. No extensions
// (permessage-deflate is intentionally absent), no subprotocol
// negotiation.
//
// Concurrency: one reader, any number of writers. ReadMessage must be
// called from a single goroutine; Write* methods are serialized by an
// internal mutex so a pong reply, a fan-out frame, and a shutdown close
// frame cannot interleave on the wire.
package ws

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"
)

// Opcode is a WebSocket frame opcode.
type Opcode byte

// Frame opcodes (RFC 6455 §5.2).
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// Close status codes (RFC 6455 §7.4.1).
const (
	CloseNormal          = 1000
	CloseGoingAway       = 1001
	CloseProtocolError   = 1002
	CloseTooBig          = 1009
	CloseInternalError   = 1011
	closeNoStatusOnFrame = 1005 // never sent on the wire
)

// CloseError is returned by ReadMessage when the peer completes (or
// initiates) the close handshake. Code 1005 means the close frame
// carried no status.
type CloseError struct {
	Code   uint16
	Reason string
}

func (e *CloseError) Error() string {
	return fmt.Sprintf("ws: closed %d %q", e.Code, e.Reason)
}

// ErrTooBig is the cause recorded when an incoming message exceeds
// MaxMessageSize; the connection is failed with status 1009.
var ErrTooBig = errors.New("ws: message exceeds size limit")

// DefaultMaxMessage bounds an assembled incoming message (all fragments)
// unless Conn.MaxMessageSize overrides it.
const DefaultMaxMessage = 1 << 20

// maxControlPayload is the RFC 6455 §5.5 bound on control frames.
const maxControlPayload = 125

// frameSlab is the most a frame payload reads ahead of the bytes the
// connection has delivered.
const frameSlab = 4 << 10

// Conn is one WebSocket connection, either role. Created by Upgrade
// (server) or Dial (client).
type Conn struct {
	c      net.Conn
	br     *bufio.Reader // may hold bytes buffered before the hijack
	client bool          // client role: mask outgoing, require unmasked incoming
	rbuf   []byte        // frame payloads grow here as their bytes arrive

	// MaxMessageSize bounds one assembled incoming message; 0 means
	// DefaultMaxMessage. Oversize messages fail the connection with
	// close code 1009.
	MaxMessageSize int
	// WriteTimeout bounds each frame write; 0 means no deadline. The
	// hub sets it so one stuck client cannot wedge a writer goroutine.
	WriteTimeout time.Duration

	wmu        sync.Mutex
	wroteClose bool

	pongMu   sync.Mutex
	pongs    uint64 // pongs received, for keepalive liveness checks
	lastPong time.Time
}

// Pongs returns how many pong frames the reader has consumed — the
// liveness signal for application-level keepalive.
func (c *Conn) Pongs() uint64 {
	c.pongMu.Lock()
	defer c.pongMu.Unlock()
	return c.pongs
}

// LastPong returns when the most recent pong arrived (zero if none).
func (c *Conn) LastPong() time.Time {
	c.pongMu.Lock()
	defer c.pongMu.Unlock()
	return c.lastPong
}

func (c *Conn) notePong() {
	c.pongMu.Lock()
	c.pongs++
	c.lastPong = time.Now()
	c.pongMu.Unlock()
}

// maxMsg resolves the incoming-message bound.
func (c *Conn) maxMsg() int {
	if c.MaxMessageSize > 0 {
		return c.MaxMessageSize
	}
	return DefaultMaxMessage
}

// frame is one parsed frame header + payload.
type frame struct {
	fin     bool
	op      Opcode
	payload []byte
}

// readFrame parses one frame, unmasking in place. It enforces the
// masking rule for the connection's role and the control-frame bounds.
func (c *Conn) readFrame(limit int) (frame, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return frame{}, err
	}
	fin := hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return frame{}, c.fail(CloseProtocolError, "reserved bits set")
	}
	op := Opcode(hdr[0] & 0x0F)
	masked := hdr[1]&0x80 != 0
	// §5.1: clients MUST mask, servers MUST NOT. A server receiving an
	// unmasked frame (or a client receiving a masked one) fails the
	// connection with 1002.
	if !c.client && !masked {
		return frame{}, c.fail(CloseProtocolError, "client frame not masked")
	}
	if c.client && masked {
		return frame{}, c.fail(CloseProtocolError, "server frame masked")
	}
	n := int(hdr[1] & 0x7F)
	switch n {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return frame{}, err
		}
		n = int(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return frame{}, err
		}
		v := binary.BigEndian.Uint64(ext[:])
		if v > uint64(c.maxMsg()) {
			return frame{}, c.fail(CloseTooBig, ErrTooBig.Error())
		}
		n = int(v)
	}
	if op.isControl() {
		// Control frames ride outside the message size budget; RFC 6455
		// bounds them at 125 bytes instead.
		if n > maxControlPayload {
			return frame{}, c.fail(CloseProtocolError, "control frame too long")
		}
		if !fin {
			return frame{}, c.fail(CloseProtocolError, "fragmented control frame")
		}
	} else if n > limit {
		return frame{}, c.fail(CloseTooBig, ErrTooBig.Error())
	}
	var mask [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, mask[:]); err != nil {
			return frame{}, err
		}
	}
	// The payload grows in rbuf as its bytes arrive, at most doubling
	// per read, so a header that claims a megabyte costs what the peer
	// actually sends; the frame gets a copy of the whole.
	b := c.rbuf[:0]
	for len(b) < n {
		k := min(n-len(b), max(len(b), frameSlab))
		b = slices.Grow(b, k)[:len(b)+k]
		if _, err := io.ReadFull(c.br, b[len(b)-k:]); err != nil {
			return frame{}, err
		}
	}
	c.rbuf = b
	payload := make([]byte, n)
	copy(payload, b)
	if masked {
		for i := range payload {
			payload[i] ^= mask[i&3]
		}
	}
	return frame{fin: fin, op: op, payload: payload}, nil
}

func (op Opcode) isControl() bool { return op >= OpClose }

// ReadMessage returns the next complete data message, reassembling
// fragments. Control frames are handled transparently: pings are
// answered with pongs, pongs are counted (see Pongs), and a close frame
// completes the close handshake and surfaces as *CloseError. Transport
// errors (including a mid-frame connection cut) surface as-is.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	limit := c.maxMsg()
	var (
		msgOp Opcode
		buf   []byte
		inMsg bool
	)
	for {
		f, err := c.readFrame(limit - len(buf))
		if err != nil {
			return 0, nil, err
		}
		switch {
		case f.op == OpPing:
			// §5.5.2: respond with a pong carrying the same payload.
			// Best-effort — a write race with a concurrent close is fine.
			_ = c.writeFrame(OpPong, true, f.payload)
			continue
		case f.op == OpPong:
			c.notePong()
			continue
		case f.op == OpClose:
			ce := &CloseError{Code: closeNoStatusOnFrame}
			if len(f.payload) >= 2 {
				ce.Code = binary.BigEndian.Uint16(f.payload)
				ce.Reason = string(f.payload[2:])
			}
			// Echo the close (completing the handshake) unless we
			// initiated it, then tear down the transport.
			c.wmu.Lock()
			if !c.wroteClose {
				c.wroteClose = true
				_ = c.writeFrameLocked(OpClose, true, f.payload)
			}
			c.wmu.Unlock()
			_ = c.c.Close()
			return 0, nil, ce
		case f.op == OpContinuation:
			if !inMsg {
				return 0, nil, c.fail(CloseProtocolError, "continuation without start")
			}
			buf = append(buf, f.payload...)
		case f.op == OpText || f.op == OpBinary:
			if inMsg {
				return 0, nil, c.fail(CloseProtocolError, "data frame inside fragmented message")
			}
			msgOp, inMsg = f.op, true
			buf = f.payload
		default:
			return 0, nil, c.fail(CloseProtocolError, "unknown opcode")
		}
		if inMsg && f.fin {
			return msgOp, buf, nil
		}
	}
}

// fail sends a close frame with the given code (best effort), closes the
// transport, and returns the protocol error.
func (c *Conn) fail(code uint16, reason string) error {
	_ = c.writeClose(code, reason)
	_ = c.c.Close()
	return fmt.Errorf("ws: protocol error (%d): %s", code, reason)
}

// WriteMessage sends one unfragmented data message.
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	if op != OpText && op != OpBinary {
		return errors.New("ws: WriteMessage requires a data opcode")
	}
	return c.writeFrame(op, true, payload)
}

// WriteText sends a text message.
func (c *Conn) WriteText(payload []byte) error { return c.writeFrame(OpText, true, payload) }

// WritePing sends a ping control frame.
func (c *Conn) WritePing(payload []byte) error { return c.writeFrame(OpPing, true, payload) }

// WriteClose sends a close frame with a status code; the first close
// written wins, later calls are no-ops (the handshake echo must not be
// followed by more frames, §5.5.1).
func (c *Conn) WriteClose(code uint16, reason string) error { return c.writeClose(code, reason) }

func (c *Conn) writeClose(code uint16, reason string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wroteClose {
		return nil
	}
	c.wroteClose = true
	if len(reason) > maxControlPayload-2 {
		reason = reason[:maxControlPayload-2]
	}
	payload := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(payload, code)
	copy(payload[2:], reason)
	return c.writeFrameLocked(OpClose, true, payload)
}

// CloseHandshake performs an orderly client- or server-initiated close:
// write the close frame, then read until the peer's echo (or timeout),
// then close the transport. Data frames that race the close are drained
// and dropped.
func (c *Conn) CloseHandshake(code uint16, reason string, timeout time.Duration) error {
	if err := c.writeClose(code, reason); err != nil {
		_ = c.c.Close()
		return err
	}
	if timeout > 0 {
		_ = c.c.SetReadDeadline(time.Now().Add(timeout))
	}
	for {
		_, _, err := c.ReadMessage()
		var ce *CloseError
		if errors.As(err, &ce) {
			return nil // peer echoed; ReadMessage already closed the conn
		}
		if err != nil {
			_ = c.c.Close()
			return err
		}
	}
}

// Close tears the transport down without a close handshake.
func (c *Conn) Close() error { return c.c.Close() }

// SetReadDeadline bounds subsequent reads on the underlying transport.
// It lets a caller that wrote a close frame cap how long a separate
// reader goroutine may drain for the peer's echo without reading the
// connection itself — only one goroutine may ever read a Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// writeFrame serializes one frame under the write lock.
func (c *Conn) writeFrame(op Opcode, fin bool, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wroteClose {
		return errors.New("ws: write after close")
	}
	return c.writeFrameLocked(op, fin, payload)
}

func (c *Conn) writeFrameLocked(op Opcode, fin bool, payload []byte) error {
	if c.WriteTimeout > 0 {
		_ = c.c.SetWriteDeadline(time.Now().Add(c.WriteTimeout))
		defer c.c.SetWriteDeadline(time.Time{})
	}
	var hdr [14]byte
	n := 0
	b0 := byte(op)
	if fin {
		b0 |= 0x80
	}
	hdr[0] = b0
	n = 2
	switch l := len(payload); {
	case l < 126:
		hdr[1] = byte(l)
	case l <= 0xFFFF:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:], uint16(l))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:], uint64(l))
		n = 10
	}
	if c.client {
		hdr[1] |= 0x80
		var mask [4]byte
		binary.LittleEndian.PutUint32(mask[:], rand.Uint32())
		copy(hdr[n:], mask[:])
		n += 4
		// Mask a copy so the caller's buffer is not clobbered.
		masked := make([]byte, len(payload))
		for i, b := range payload {
			masked[i] = b ^ mask[i&3]
		}
		payload = masked
	}
	if _, err := c.c.Write(hdr[:n]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := c.c.Write(payload); err != nil {
			return err
		}
	}
	return nil
}
