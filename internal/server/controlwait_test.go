package server

import (
	"strings"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
)

// stuckControl admits subscriptions and never answers a control until
// released.
type stuckControl struct{ release chan struct{} }

func (f *stuckControl) Definition() e2ap.RANFunctionItem {
	return e2ap.RANFunctionItem{ID: 7, Revision: 1, OID: "stuck"}
}

func (f *stuckControl) OnSubscription(agent.ControllerID, *e2ap.SubscriptionRequest, agent.IndicationSender) error {
	return nil
}

func (f *stuckControl) OnSubscriptionDelete(agent.ControllerID, *e2ap.SubscriptionDeleteRequest) error {
	return nil
}

func (f *stuckControl) OnControl(_ agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
	<-f.release
	return req.Payload, nil
}

// TestControlWaitTimeoutForgetsControl: a control the agent never
// answers returns the timeout error, and its pending entry is gone
// afterwards instead of waiting for the agent to disconnect.
func TestControlWaitTimeoutForgetsControl(t *testing.T) {
	defer func(d time.Duration) { controlTimeout = d }(controlTimeout)
	controlTimeout = 50 * time.Millisecond

	s := New(Config{})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fn := &stuckControl{release: make(chan struct{})}
	a := agent.New(agent.Config{NodeID: e2ap.GlobalE2NodeID{Type: e2ap.NodeENB, NodeID: 1}})
	if err := a.RegisterFunction(fn); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer close(fn.release)
	deadline := time.Now().Add(5 * time.Second)
	for len(s.Agents()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent never connected")
		}
		time.Sleep(time.Millisecond)
	}
	id := s.Agents()[0].ID

	if _, err := s.ControlWait(id, 7, nil, []byte("x")); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("ControlWait = %v, want a timeout", err)
	}
	s.subs.mu.Lock()
	pending := len(s.subs.controls)
	s.subs.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d controls still pending after the timeout, want 0", pending)
	}
	if _, err := s.ControlWait(id+1, 7, nil, nil); err == nil {
		t.Fatal("ControlWait to an unknown agent succeeded")
	}
}
