package agent_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/resilience"
	"flexric/internal/transport"
)

// fakeController accepts one agent over the pipe transport and lets the
// test drive raw E2AP exchanges, exercising the agent's message handler
// without a full server.
type fakeController struct {
	t     *testing.T
	lis   transport.Listener
	conn  transport.Conn
	codec e2ap.Codec
}

func startFake(t *testing.T, name string) *fakeController {
	t.Helper()
	lis, err := transport.Listen(transport.KindPipe, name)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeController{t: t, lis: lis, codec: e2ap.MustCodec(e2ap.SchemeASN)}
	t.Cleanup(func() {
		lis.Close()
		if f.conn != nil {
			f.conn.Close()
		}
	})
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		f.conn = conn
		// E2 setup handshake.
		wire, err := conn.Recv(nil)
		if err != nil {
			return
		}
		codec := e2ap.MustCodec(e2ap.SchemeASN)
		pdu, err := codec.Decode(wire)
		if err != nil {
			return
		}
		setup, ok := pdu.(*e2ap.SetupRequest)
		if !ok {
			return
		}
		resp, _ := codec.Encode(&e2ap.SetupResponse{TransactionID: setup.TransactionID})
		_ = conn.Send(resp)
	}()
	return f
}

func (f *fakeController) send(pdu e2ap.PDU) {
	f.t.Helper()
	wire, err := f.codec.Encode(pdu)
	if err != nil {
		f.t.Fatal(err)
	}
	if err := f.conn.Send(wire); err != nil {
		f.t.Fatal(err)
	}
}

func (f *fakeController) recv() e2ap.PDU {
	f.t.Helper()
	wire, err := f.conn.Recv(nil)
	if err != nil {
		f.t.Fatal(err)
	}
	pdu, err := e2ap.MustCodec(e2ap.SchemeASN).Decode(wire)
	if err != nil {
		f.t.Fatal(err)
	}
	return pdu
}

type nopFn struct{ id uint16 }

func (f nopFn) Definition() e2ap.RANFunctionItem {
	return e2ap.RANFunctionItem{ID: f.id, Revision: 1, OID: "nop"}
}
func (nopFn) OnSubscription(agent.ControllerID, *e2ap.SubscriptionRequest, agent.IndicationSender) error {
	return nil
}
func (nopFn) OnSubscriptionDelete(agent.ControllerID, *e2ap.SubscriptionDeleteRequest) error {
	return nil
}
func (nopFn) OnControl(agent.ControllerID, *e2ap.ControlRequest) ([]byte, error) {
	return nil, nil
}

func connectAgent(t *testing.T, name string) (*agent.Agent, *fakeController) {
	t.Helper()
	f := startFake(t, name)
	a := agent.New(agent.Config{
		NodeID:    e2ap.GlobalE2NodeID{PLMN: e2ap.PLMN{MCC: 1, MNC: 1}, Type: e2ap.NodeENB, NodeID: 1},
		Transport: transport.KindPipe,
	})
	if err := a.RegisterFunction(nopFn{id: 140}); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterFunction(nopFn{id: 142}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect(name); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	// Give the fake's accept goroutine time to stash the conn.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && f.conn == nil {
		time.Sleep(time.Millisecond)
	}
	if f.conn == nil {
		t.Fatal("fake controller never accepted")
	}
	return a, f
}

func TestAgentResetProcedure(t *testing.T) {
	_, f := connectAgent(t, "agent-reset")
	f.send(&e2ap.ResetRequest{TransactionID: 9, Cause: e2ap.Cause{Type: e2ap.CauseMisc}})
	pdu := f.recv()
	resp, ok := pdu.(*e2ap.ResetResponse)
	if !ok || resp.TransactionID != 9 {
		t.Fatalf("got %T %+v", pdu, pdu)
	}
}

func TestAgentServiceQuery(t *testing.T) {
	_, f := connectAgent(t, "agent-query")
	f.send(&e2ap.ServiceQuery{TransactionID: 3})
	pdu := f.recv()
	upd, ok := pdu.(*e2ap.ServiceUpdate)
	if !ok || upd.TransactionID != 3 {
		t.Fatalf("got %T %+v", pdu, pdu)
	}
	if len(upd.Added) != 2 {
		t.Fatalf("functions announced: %d", len(upd.Added))
	}
}

func TestAgentUnknownFunctionPaths(t *testing.T) {
	_, f := connectAgent(t, "agent-unknown")
	// Subscription to an unknown function → failure.
	f.send(&e2ap.SubscriptionRequest{
		RequestID: e2ap.RequestID{Requestor: 1, Instance: 1}, RANFunctionID: 999,
	})
	if _, ok := f.recv().(*e2ap.SubscriptionFailure); !ok {
		t.Fatal("expected SubscriptionFailure")
	}
	// Delete on an unknown function → failure.
	f.send(&e2ap.SubscriptionDeleteRequest{
		RequestID: e2ap.RequestID{Requestor: 1, Instance: 1}, RANFunctionID: 999,
	})
	if _, ok := f.recv().(*e2ap.SubscriptionDeleteFailure); !ok {
		t.Fatal("expected SubscriptionDeleteFailure")
	}
	// Control on an unknown function → failure.
	f.send(&e2ap.ControlRequest{
		RequestID: e2ap.RequestID{Requestor: 1, Instance: 2}, RANFunctionID: 999,
	})
	if _, ok := f.recv().(*e2ap.ControlFailure); !ok {
		t.Fatal("expected ControlFailure")
	}
}

func TestAgentUnexpectedMessage(t *testing.T) {
	_, f := connectAgent(t, "agent-unexpected")
	// A SetupResponse after setup is a protocol violation: the agent
	// answers with an error indication rather than dying.
	f.send(&e2ap.SetupResponse{TransactionID: 1})
	pdu := f.recv()
	ei, ok := pdu.(*e2ap.ErrorIndication)
	if !ok || ei.Cause.Type != e2ap.CauseProtocol {
		t.Fatalf("got %T %+v", pdu, pdu)
	}
}

func TestAgentFunctionsListing(t *testing.T) {
	a := agent.New(agent.Config{})
	if err := a.RegisterFunction(nopFn{id: 7}); err != nil {
		t.Fatal(err)
	}
	fns := a.Functions()
	if len(fns) != 1 || fns[0].ID != 7 {
		t.Fatalf("functions: %+v", fns)
	}
	if a.Controllers() != 0 {
		t.Fatal("no controllers yet")
	}
}

// A controller that accepts the association and never answers E2 setup
// must fail Connect within a few DialTimeouts — with and without
// resilience, whose dead-peer bound is much longer — and leave no
// goroutine behind.
func TestConnectBoundsSetupWait(t *testing.T) {
	const dialTimeout = 200 * time.Millisecond
	for _, tc := range []struct {
		name string
		res  *resilience.Config
	}{
		{"plain", nil},
		{"resilience", &resilience.Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			lis, err := transport.Listen(transport.KindSCTPish, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			held := make(chan transport.Conn, 1)
			go func() {
				if c, err := lis.Accept(); err == nil {
					held <- c // accepted, never answered
				}
			}()
			a := agent.New(agent.Config{
				Scheme:      e2ap.SchemeASN,
				DialTimeout: dialTimeout,
				Resilience:  tc.res,
			})
			done := make(chan error, 1)
			t0 := time.Now()
			go func() {
				_, err := a.Connect(lis.Addr())
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, transport.ErrTimeout) {
					t.Fatalf("Connect to a silent controller = %v, want ErrTimeout", err)
				}
				if el := time.Since(t0); el > 5*dialTimeout {
					t.Fatalf("Connect failed after %v, want within 5 x %v", el, dialTimeout)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Connect still blocked after 10s: the E2 setup wait is unbounded")
			}
			a.Close()
			(<-held).Close()
			lis.Close()
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
