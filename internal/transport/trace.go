package transport

import "flexric/internal/trace"

// TracedSend sends b on c, recording a "transport.send" span under tc
// when the message belongs to a sampled trace. The E2 send paths route
// through this helper so the span covers exactly the transport cost
// (framing + write), not encoding.
func TracedSend(c Conn, b []byte, tc trace.Context) error {
	if !tc.Valid() {
		return c.Send(b)
	}
	sp := trace.StartChild(tc, "transport.send")
	err := c.Send(b)
	sp.End()
	return err
}
