package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/server"
	"flexric/internal/transport"
)

// echoFunction is a minimal RAN function: it admits subscriptions,
// remembers the sender, and echoes control payloads both as control
// outcome and as an indication (the HW-E2SM ping pattern of §5.2).
type echoFunction struct {
	id uint16

	mu     sync.Mutex
	sender agent.IndicationSender
	subs   int
	dels   int
}

func (f *echoFunction) Definition() e2ap.RANFunctionItem {
	return e2ap.RANFunctionItem{ID: f.id, Revision: 1, OID: "1.3.6.1.4.1.53148.1.1"}
}

func (f *echoFunction) OnSubscription(ctrl agent.ControllerID, req *e2ap.SubscriptionRequest, tx agent.IndicationSender) error {
	if bytes.Equal(req.EventTrigger, []byte("reject")) {
		return errors.New("rejected by SM")
	}
	f.mu.Lock()
	f.sender = tx
	f.subs++
	f.mu.Unlock()
	return nil
}

func (f *echoFunction) OnSubscriptionDelete(ctrl agent.ControllerID, req *e2ap.SubscriptionDeleteRequest) error {
	f.mu.Lock()
	f.dels++
	f.sender = nil
	f.mu.Unlock()
	return nil
}

func (f *echoFunction) OnControl(ctrl agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
	if bytes.Equal(req.Payload, []byte("fail")) {
		return nil, errors.New("control refused")
	}
	f.mu.Lock()
	tx := f.sender
	f.mu.Unlock()
	if tx != nil {
		// Ping: reply with an indication carrying the control payload.
		if err := tx.SendIndication(1, e2ap.IndicationReport, req.Header, req.Payload); err != nil {
			return nil, err
		}
	}
	return req.Payload, nil
}

func nodeID(t e2ap.NodeType, id uint64) e2ap.GlobalE2NodeID {
	return e2ap.GlobalE2NodeID{PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: t, NodeID: id}
}

func startServer(t *testing.T, scheme e2ap.Scheme) (*server.Server, string) {
	t.Helper()
	s := server.New(server.Config{
		RICID:     e2ap.GlobalRICID{PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, RICID: 1},
		Scheme:    scheme,
		Transport: transport.KindSCTPish,
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func connectAgent(t *testing.T, addr string, scheme e2ap.Scheme, node e2ap.GlobalE2NodeID, fns ...agent.RANFunction) *agent.Agent {
	t.Helper()
	a := agent.New(agent.Config{NodeID: node, Scheme: scheme, Transport: transport.KindSCTPish})
	for _, fn := range fns {
		if err := a.RegisterFunction(fn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestSetupAndAgentEvents(t *testing.T) {
	for _, scheme := range []e2ap.Scheme{e2ap.SchemeASN, e2ap.SchemeFB} {
		t.Run(string(scheme), func(t *testing.T) {
			s, addr := startServer(t, scheme)
			var connected atomic.Int32
			var gotInfo atomic.Value
			s.OnAgentConnect(func(info server.AgentInfo) {
				gotInfo.Store(info) // before the count the test waits on
				connected.Add(1)
			})
			connectAgent(t, addr, scheme, nodeID(e2ap.NodeENB, 42), &echoFunction{id: 140})
			waitFor(t, "agent connect event", func() bool { return connected.Load() == 1 })
			info := gotInfo.Load().(server.AgentInfo)
			if info.NodeID.NodeID != 42 || !info.HasFunction(140) || info.HasFunction(9) {
				t.Fatalf("agent info: %+v", info)
			}
			if len(s.Agents()) != 1 {
				t.Fatalf("agents: %d", len(s.Agents()))
			}
		})
	}
}

func TestSubscriptionIndicationControlRoundTrip(t *testing.T) {
	for _, scheme := range []e2ap.Scheme{e2ap.SchemeASN, e2ap.SchemeFB} {
		t.Run(string(scheme), func(t *testing.T) {
			s, addr := startServer(t, scheme)
			fn := &echoFunction{id: 140}
			connectAgent(t, addr, scheme, nodeID(e2ap.NodeENB, 1), fn)
			waitFor(t, "agent", func() bool { return len(s.Agents()) == 1 })
			agentID := s.Agents()[0].ID

			admitted := make(chan *e2ap.SubscriptionResponse, 1)
			inds := make(chan []byte, 16)
			_, err := s.Subscribe(agentID, 140, []byte{1}, []e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
				server.SubscriptionCallbacks{
					OnAdmitted: func(r *e2ap.SubscriptionResponse) { admitted <- r },
					OnIndication: func(ev server.IndicationEvent) {
						inds <- append([]byte(nil), ev.Env.IndicationPayload()...)
					},
				})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-admitted:
				if len(r.Admitted) != 1 || r.Admitted[0] != 1 {
					t.Fatalf("admitted: %+v", r)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no subscription response")
			}

			// Control ping: agent echoes via indication + ack.
			outcome := make(chan []byte, 1)
			err = s.Control(agentID, 140, []byte("hdr"), []byte("ping-1"), true,
				func(out []byte, err error) {
					if err != nil {
						t.Errorf("control: %v", err)
					}
					outcome <- out
				})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case out := <-outcome:
				if string(out) != "ping-1" {
					t.Fatalf("outcome %q", out)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no control ack")
			}
			select {
			case p := <-inds:
				if string(p) != "ping-1" {
					t.Fatalf("indication payload %q", p)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no indication")
			}
		})
	}
}

func TestSubscriptionFailurePaths(t *testing.T) {
	s, addr := startServer(t, e2ap.SchemeASN)
	fn := &echoFunction{id: 140}
	connectAgent(t, addr, e2ap.SchemeASN, nodeID(e2ap.NodeENB, 1), fn)
	waitFor(t, "agent", func() bool { return len(s.Agents()) == 1 })
	agentID := s.Agents()[0].ID

	// SM rejection.
	failed := make(chan e2ap.Cause, 1)
	if _, err := s.Subscribe(agentID, 140, []byte("reject"), nil, server.SubscriptionCallbacks{
		OnFailure: func(c e2ap.Cause) { failed <- c },
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-failed:
		if c.Type != e2ap.CauseRICService {
			t.Fatalf("cause %v", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no failure callback")
	}

	// Unknown RAN function.
	failed2 := make(chan e2ap.Cause, 1)
	if _, err := s.Subscribe(agentID, 999, nil, nil, server.SubscriptionCallbacks{
		OnFailure: func(c e2ap.Cause) { failed2 <- c },
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-failed2:
		if c.Type != e2ap.CauseRICRequest {
			t.Fatalf("cause %v", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no failure for unknown function")
	}

	// Subscribing to a nonexistent agent fails synchronously.
	if _, err := s.Subscribe(server.AgentID(99), 140, nil, nil, server.SubscriptionCallbacks{}); err == nil {
		t.Fatal("unknown agent must fail")
	}
}

func TestUnsubscribe(t *testing.T) {
	s, addr := startServer(t, e2ap.SchemeASN)
	fn := &echoFunction{id: 140}
	connectAgent(t, addr, e2ap.SchemeASN, nodeID(e2ap.NodeENB, 1), fn)
	waitFor(t, "agent", func() bool { return len(s.Agents()) == 1 })
	agentID := s.Agents()[0].ID

	deleted := make(chan struct{}, 1)
	sub, err := s.Subscribe(agentID, 140, []byte{1}, nil, server.SubscriptionCallbacks{
		OnAdmitted: func(*e2ap.SubscriptionResponse) {},
		OnDeleted:  func() { deleted <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription at agent", func() bool {
		fn.mu.Lock()
		defer fn.mu.Unlock()
		return fn.subs == 1
	})
	if err := s.Unsubscribe(sub, 140); err != nil {
		t.Fatal(err)
	}
	select {
	case <-deleted:
	case <-time.After(5 * time.Second):
		t.Fatal("no delete confirmation")
	}
	fn.mu.Lock()
	dels := fn.dels
	fn.mu.Unlock()
	if dels != 1 {
		t.Fatalf("agent delete callbacks: %d", dels)
	}
}

func TestControlFailure(t *testing.T) {
	s, addr := startServer(t, e2ap.SchemeASN)
	connectAgent(t, addr, e2ap.SchemeASN, nodeID(e2ap.NodeENB, 1), &echoFunction{id: 140})
	waitFor(t, "agent", func() bool { return len(s.Agents()) == 1 })
	agentID := s.Agents()[0].ID
	errCh := make(chan error, 1)
	if err := s.Control(agentID, 140, nil, []byte("fail"), true, func(out []byte, err error) {
		errCh <- err
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expected control failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no control failure callback")
	}
}

func TestRANDBMergesCUDU(t *testing.T) {
	s, addr := startServer(t, e2ap.SchemeASN)
	complete := make(chan server.RANEntity, 1)
	s.OnRANComplete(func(e server.RANEntity) { complete <- e })

	connectAgent(t, addr, e2ap.SchemeASN, nodeID(e2ap.NodeCU, 7), &echoFunction{id: 140})
	waitFor(t, "CU agent", func() bool { return len(s.Agents()) == 1 })
	select {
	case <-complete:
		t.Fatal("entity must not be complete with CU only")
	case <-time.After(50 * time.Millisecond):
	}
	ents := s.RANDB().Entities()
	if len(ents) != 1 || ents[0].Complete {
		t.Fatalf("entities: %+v", ents)
	}

	connectAgent(t, addr, e2ap.SchemeASN, nodeID(e2ap.NodeDU, 7), &echoFunction{id: 141})
	select {
	case e := <-complete:
		if e.NodeID != 7 || len(e.Parts) != 2 {
			t.Fatalf("complete entity: %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no RAN-complete event")
	}
	ent, ok := s.RANDB().Entity(e2ap.PLMN{MCC: 208, MNC: 95}, 7)
	if !ok || !ent.Complete {
		t.Fatalf("entity lookup: %+v %v", ent, ok)
	}
}

func TestRANDBSeparateEntities(t *testing.T) {
	s, addr := startServer(t, e2ap.SchemeASN)
	connectAgent(t, addr, e2ap.SchemeASN, nodeID(e2ap.NodeENB, 1), &echoFunction{id: 140})
	connectAgent(t, addr, e2ap.SchemeASN, nodeID(e2ap.NodeENB, 2), &echoFunction{id: 140})
	waitFor(t, "two agents", func() bool { return len(s.Agents()) == 2 })
	ents := s.RANDB().Entities()
	if len(ents) != 2 {
		t.Fatalf("entities: %+v", ents)
	}
	for _, e := range ents {
		if !e.Complete {
			t.Fatalf("monolithic entity incomplete: %+v", e)
		}
	}
}

func TestAgentDisconnectCleanup(t *testing.T) {
	s, addr := startServer(t, e2ap.SchemeASN)
	var disconnected atomic.Int32
	s.OnAgentDisconnect(func(server.AgentInfo) { disconnected.Add(1) })
	fn := &echoFunction{id: 140}
	a := connectAgent(t, addr, e2ap.SchemeASN, nodeID(e2ap.NodeENB, 5), fn)
	waitFor(t, "agent", func() bool { return len(s.Agents()) == 1 })
	agentID := s.Agents()[0].ID
	deleted := make(chan struct{}, 1)
	if _, err := s.Subscribe(agentID, 140, []byte{1}, nil, server.SubscriptionCallbacks{
		OnDeleted: func() { deleted <- struct{}{} },
	}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	waitFor(t, "disconnect event", func() bool { return disconnected.Load() == 1 })
	select {
	case <-deleted:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription not torn down on disconnect")
	}
	if len(s.Agents()) != 0 {
		t.Fatal("agent still listed after disconnect")
	}
	if len(s.RANDB().Entities()) != 0 {
		t.Fatal("RANDB entity not removed")
	}
}

func TestMultiControllerAgent(t *testing.T) {
	// One agent, two controllers (§4.1.2). Both can subscribe and
	// control independently; UE exposure gates what additional
	// controllers may see.
	s1, addr1 := startServer(t, e2ap.SchemeASN)
	s2, addr2 := startServer(t, e2ap.SchemeASN)

	fn := &echoFunction{id: 140}
	a := agent.New(agent.Config{NodeID: nodeID(e2ap.NodeENB, 9), Scheme: e2ap.SchemeASN})
	if err := a.RegisterFunction(fn); err != nil {
		t.Fatal(err)
	}
	c0, err := a.Connect(addr1)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := a.Connect(addr2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if c0 != 0 || c1 != 1 || a.Controllers() != 2 {
		t.Fatalf("controller ids: %d %d", c0, c1)
	}
	waitFor(t, "both servers see the agent", func() bool {
		return len(s1.Agents()) == 1 && len(s2.Agents()) == 1
	})

	// Default UE association: controller 0 sees everything, controller 1
	// nothing until exposed.
	if !a.UEVisible(0, 17) {
		t.Fatal("controller 0 must see all UEs")
	}
	if a.UEVisible(1, 17) {
		t.Fatal("controller 1 must not see unexposed UEs")
	}
	a.ExposeUE(1, 17)
	if !a.UEVisible(1, 17) {
		t.Fatal("exposure failed")
	}
	a.HideUE(1, 17)
	if a.UEVisible(1, 17) {
		t.Fatal("hide failed")
	}

	// Both controllers can drive the same RAN function.
	for i, s := range []*server.Server{s1, s2} {
		agentID := s.Agents()[0].ID
		out := make(chan []byte, 1)
		payload := []byte(fmt.Sprintf("ctl-%d", i))
		if err := s.Control(agentID, 140, nil, payload, true, func(o []byte, err error) {
			if err != nil {
				t.Errorf("control %d: %v", i, err)
			}
			out <- o
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case o := <-out:
			if !bytes.Equal(o, payload) {
				t.Fatalf("controller %d outcome %q", i, o)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("controller %d: no ack", i)
		}
	}
}

func TestAgentDuplicateFunction(t *testing.T) {
	a := agent.New(agent.Config{NodeID: nodeID(e2ap.NodeENB, 1)})
	if err := a.RegisterFunction(&echoFunction{id: 140}); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterFunction(&echoFunction{id: 140}); err == nil {
		t.Fatal("duplicate function id must fail")
	}
}

func TestAgentConnectFailures(t *testing.T) {
	a := agent.New(agent.Config{NodeID: nodeID(e2ap.NodeENB, 1)})
	if _, err := a.Connect("127.0.0.1:1"); err == nil {
		t.Fatal("connect to dead port must fail")
	}
	a.Close()
	if _, err := a.Connect("127.0.0.1:1"); !errors.Is(err, agent.ErrClosed) {
		t.Fatalf("closed agent connect: %v", err)
	}
}

func TestPipeTransportEndToEnd(t *testing.T) {
	// Co-located controller/agent over the in-process pipe transport.
	s := server.New(server.Config{Scheme: e2ap.SchemeFB, Transport: transport.KindPipe})
	addr, err := s.Start("e2e-pipe")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	fn := &echoFunction{id: 140}
	a := agent.New(agent.Config{NodeID: nodeID(e2ap.NodeGNB, 3), Scheme: e2ap.SchemeFB, Transport: transport.KindPipe})
	if err := a.RegisterFunction(fn); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	waitFor(t, "agent", func() bool { return len(s.Agents()) == 1 })
	out := make(chan []byte, 1)
	if err := s.Control(s.Agents()[0].ID, 140, nil, []byte("hi"), true, func(o []byte, err error) { out <- o }); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-out:
		if string(o) != "hi" {
			t.Fatalf("outcome %q", o)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ack over pipe")
	}
}
