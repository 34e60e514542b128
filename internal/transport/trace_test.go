package transport

import (
	"testing"

	"flexric/internal/trace"
)

// TracedSend must record a span exactly when the context is sampled.
func TestTracedSend(t *testing.T) {
	trace.Reset()
	trace.SetSampleEvery(1)
	defer func() {
		trace.SetSampleEvery(0)
		trace.Reset()
	}()

	l, err := Listen(KindSCTPish, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := Dial(KindSCTPish, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	// Untraced context: no span recorded.
	if err := TracedSend(client, []byte("untraced"), trace.Context{}); err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Snapshot()); n != 0 {
		t.Fatalf("untraced send recorded %d spans", n)
	}

	sp := trace.StartRoot("test.root")
	if err := TracedSend(client, []byte("traced"), sp.Context()); err != nil {
		t.Fatal(err)
	}
	sp.End()

	spans := trace.Snapshot()
	var found bool
	for _, s := range spans {
		if s.Name == "transport.send" && s.Parent == sp.Context().SpanID {
			found = true
		}
	}
	if !found {
		t.Fatalf("no transport.send span under root: %+v", spans)
	}
}
