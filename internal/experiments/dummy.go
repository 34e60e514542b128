package experiments

import (
	"fmt"
	"sync"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/transport"
)

// DummyAgent is the §5.3 load generator: a test agent "not connected to
// any base station" that exports the statistics of a 32-UE cell at a
// configurable period.
//
// To measure the *controller's* cost (the paper runs agents and
// controller in separate processes), the dummy agent pre-encodes its
// indication once per subscription and replays the same wire bytes every
// period — its per-message cost is a single send, identical across
// encoding schemes, so CPU differences between runs are attributable to
// the receiving controller.
type DummyAgent struct {
	tc transport.Conn

	mu   sync.Mutex
	wire []byte // pre-encoded indication, nil until subscribed

	stop chan struct{}
	done chan struct{}
	once sync.Once
	sent uint64
}

// StartDummyAgent connects a dummy agent to a controller and replays one
// pre-encoded 32-UE MAC report per period once subscribed.
func StartDummyAgent(nodeID uint64, controller string, e2s e2ap.Scheme, sms sm.Scheme, nUE int, period time.Duration) (*DummyAgent, error) {
	tc, err := transport.Dial(transport.KindSCTPish, controller)
	if err != nil {
		return nil, err
	}
	codec := e2ap.MustCodec(e2s)
	setup := &e2ap.SetupRequest{
		TransactionID: 1,
		NodeID:        station.Node(e2ap.NodeENB, nodeID),
		RANFunctions: []e2ap.RANFunctionItem{
			{ID: sm.IDMACStats, Revision: 1, OID: "dummy-mac"},
		},
	}
	wire, err := codec.Encode(setup)
	if err != nil {
		tc.Close()
		return nil, err
	}
	if err := tc.Send(wire); err != nil {
		tc.Close()
		return nil, err
	}
	reply, err := tc.Recv()
	if err != nil {
		tc.Close()
		return nil, err
	}
	if pdu, err := codec.Decode(reply); err != nil {
		tc.Close()
		return nil, fmt.Errorf("dummy setup: %w", err)
	} else if _, ok := pdu.(*e2ap.SetupResponse); !ok {
		tc.Close()
		return nil, fmt.Errorf("dummy setup rejected: %s", pdu.MsgType())
	}

	d := &DummyAgent{tc: tc, stop: make(chan struct{}), done: make(chan struct{})}

	// Receive loop: answer subscriptions and pre-encode the indication.
	go func() {
		dec := e2ap.MustCodec(e2s)
		enc := e2ap.MustCodec(e2s)
		for {
			wire, err := tc.Recv()
			if err != nil {
				return
			}
			pdu, err := dec.Decode(wire)
			if err != nil {
				continue
			}
			switch m := pdu.(type) {
			case *e2ap.SubscriptionRequest:
				rep := syntheticMACReport(sms, nUE)
				ind, err := enc.Encode(&e2ap.Indication{
					RequestID:     m.RequestID,
					RANFunctionID: m.RANFunctionID,
					ActionID:      1,
					SN:            1,
					Payload:       rep,
				})
				if err != nil {
					continue
				}
				d.mu.Lock()
				d.wire = append([]byte(nil), ind...)
				d.mu.Unlock()
				resp, err := enc.Encode(&e2ap.SubscriptionResponse{
					RequestID:     m.RequestID,
					RANFunctionID: m.RANFunctionID,
					Admitted:      []uint8{1},
				})
				if err == nil {
					_ = tc.Send(resp)
				}
			case *e2ap.SubscriptionDeleteRequest:
				d.mu.Lock()
				d.wire = nil
				d.mu.Unlock()
				if resp, err := enc.Encode(&e2ap.SubscriptionDeleteResponse{
					RequestID: m.RequestID, RANFunctionID: m.RANFunctionID,
				}); err == nil {
					_ = tc.Send(resp)
				}
			}
		}
	}()

	// Replay loop.
	go func() {
		defer close(d.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.mu.Lock()
				w := d.wire
				d.mu.Unlock()
				if w != nil {
					if err := tc.Send(w); err != nil {
						return
					}
					d.sent++
				}
			}
		}
	}()
	return d, nil
}

// syntheticMACReport builds the 32-UE report payload.
func syntheticMACReport(sms sm.Scheme, nUE int) []byte {
	rep := &sm.MACReport{CellTimeMS: 1}
	for i := 0; i < nUE; i++ {
		rep.UEs = append(rep.UEs, sm.MACUEEntry{
			RNTI:          uint16(i + 1),
			CQI:           15,
			MCS:           28,
			RBsUsed:       25000,
			TxBits:        16_000_000,
			ThroughputBps: 16e6,
		})
	}
	return sm.EncodeMACReport(sms, rep)
}

// Close stops the replay and disconnects.
func (d *DummyAgent) Close() {
	d.once.Do(func() { close(d.stop) })
	<-d.done
	d.tc.Close()
}
