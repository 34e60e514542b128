package oranric

import (
	"encoding/binary"
	"sync"

	"flexric/internal/transport"
)

// The RMR-style message bus: O-RAN's RIC message router addresses
// components by message type through a routing table; here the routing
// decision is folded into a fixed header (agent ID) since the emulation
// runs one E2T and one xApp host, but every message still pays the extra
// hop, the header, and a payload copy, as RMR does.

// rmrMsg is one bus frame.
type rmrMsg struct {
	agent   uint32
	payload []byte
}

const rmrHeader = 8 // agent(4) + reserved(4), mimicking RMR's fixed header

func rmrSend(tc transport.Conn, mu *sync.Mutex, m rmrMsg) error {
	buf := make([]byte, rmrHeader+len(m.payload))
	binary.BigEndian.PutUint32(buf[0:], m.agent)
	copy(buf[rmrHeader:], m.payload)
	mu.Lock()
	defer mu.Unlock()
	return tc.Send(buf)
}

func rmrRecv(tc transport.Conn, mu *sync.Mutex) (rmrMsg, error) {
	mu.Lock()
	wire, err := tc.Recv(nil)
	mu.Unlock()
	if err != nil {
		return rmrMsg{}, err
	}
	if len(wire) < rmrHeader {
		return rmrMsg{}, transport.ErrClosed
	}
	return rmrMsg{
		agent:   binary.BigEndian.Uint32(wire[0:]),
		payload: wire[rmrHeader:],
	}, nil
}
