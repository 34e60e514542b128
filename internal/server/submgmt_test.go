package server

import (
	"testing"

	"flexric/internal/e2ap"
)

// TestUnmatchedIndicationDropped: an indication whose RequestID matches
// no subscription moves server.indications_dropped by exactly one and
// reaches no callback; one that matches reaches its callback and leaves
// the counter alone.
func TestUnmatchedIndicationDropped(t *testing.T) {
	for _, scheme := range []e2ap.Scheme{e2ap.SchemeASN, e2ap.SchemeFB} {
		t.Run(string(scheme), func(t *testing.T) {
			const agent AgentID = 1
			m := newSubManager()
			delivered := 0
			req := m.create(agent, 2, nil, nil, SubscriptionCallbacks{
				OnIndication: func(IndicationEvent) { delivered++ },
			})
			defer m.remove(SubID{Agent: agent, Req: req})

			codec := e2ap.MustCodec(scheme)
			dispatch := func(id e2ap.RequestID) {
				wire, err := codec.Encode(&e2ap.Indication{
					RequestID: id, RANFunctionID: 2, ActionID: 1, SN: 1, Payload: []byte{1},
				})
				if err != nil {
					t.Fatal(err)
				}
				env, err := codec.Envelope(wire)
				if err != nil {
					t.Fatal(err)
				}
				m.dispatchIndication(agent, env)
			}

			before := serverTel.dropped.Load()
			dispatch(e2ap.RequestID{Requestor: req.Requestor, Instance: req.Instance + 1})
			if got := serverTel.dropped.Load() - before; got != 1 {
				t.Fatalf("server.indications_dropped moved by %d, want 1", got)
			}
			if delivered != 0 {
				t.Fatalf("unmatched indication reached a callback %d times", delivered)
			}
			dispatch(req)
			if delivered != 1 {
				t.Fatalf("matched indication delivered %d times, want 1", delivered)
			}
			if got := serverTel.dropped.Load() - before; got != 1 {
				t.Fatalf("matched indication moved server.indications_dropped to +%d", got)
			}
		})
	}
}
