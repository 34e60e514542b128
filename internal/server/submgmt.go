package server

import (
	"sync"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/telemetry"
	"flexric/internal/trace"
)

// subManager is the subscription management of §4.2.2: it "(i) keeps
// track of existing subscriptions and (ii) delivers arriving
// subscription-related messages to the corresponding iApps". Lookup on
// the indication hot path is a single map access keyed by
// (agent, request ID) read from the message envelope.
type subManager struct {
	mu       sync.Mutex
	subs     map[SubID]*subscription
	controls map[SubID]func(outcome []byte, err error)
	// Requestor namespaces: subscriptions and controls use distinct
	// requestor IDs so their instance counters are independent.
	subSeq uint16
	ctlSeq uint16
	fafSeq uint16
}

// Requestor namespaces for RequestID.Requestor.
const (
	requestorSub     = 1
	requestorControl = 2
	requestorFaF     = 3 // fire-and-forget controls
)

type subscription struct {
	cb SubscriptionCallbacks
	// Replay metadata: enough of the original request to re-issue it
	// verbatim (same RequestID) when a suspended agent reconnects.
	fnID    uint16
	trigger []byte
	actions []e2ap.Action
	// inds counts indications delivered to this subscription
	// (server.sub.<...>.indications).
	inds *telemetry.Counter
}

func newSubManager() *subManager {
	return &subManager{
		subs:     make(map[SubID]*subscription),
		controls: make(map[SubID]func([]byte, error)),
	}
}

func (m *subManager) create(agent AgentID, fnID uint16, trigger []byte, actions []e2ap.Action, cb SubscriptionCallbacks) e2ap.RequestID {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subSeq++
	req := e2ap.RequestID{Requestor: requestorSub, Instance: m.subSeq}
	id := SubID{Agent: agent, Req: req}
	m.subs[id] = &subscription{
		cb:      cb,
		fnID:    fnID,
		trigger: trigger,
		actions: actions,
		inds:    subIndications(id),
	}
	serverTel.subsActive.Set(int64(len(m.subs)))
	return req
}

// remove forgets a subscription and returns it (nil if unknown).
func (m *subManager) remove(id SubID) *subscription {
	m.mu.Lock()
	sub := m.subs[id]
	delete(m.subs, id)
	serverTel.subsActive.Set(int64(len(m.subs)))
	m.mu.Unlock()
	dropSubTelemetry(id)
	return sub
}

func (m *subManager) createControl(agent AgentID, done func([]byte, error)) e2ap.RequestID {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctlSeq++
	req := e2ap.RequestID{Requestor: requestorControl, Instance: m.ctlSeq}
	m.controls[SubID{Agent: agent, Req: req}] = done
	return req
}

// takeControl forgets a pending control and returns its callback (nil
// if unknown).
func (m *subManager) takeControl(id SubID) func([]byte, error) {
	m.mu.Lock()
	done := m.controls[id]
	delete(m.controls, id)
	m.mu.Unlock()
	return done
}

func (m *subManager) nextFireAndForget() e2ap.RequestID {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fafSeq++
	return e2ap.RequestID{Requestor: requestorFaF, Instance: m.fafSeq}
}

// dispatchIndication routes an indication envelope to its subscriber.
// This is the server's hottest path (§5.3): one lock, one map lookup,
// one callback.
func (m *subManager) dispatchIndication(agent AgentID, env e2ap.Envelope) {
	t0 := time.Now()
	id := SubID{Agent: agent, Req: env.RequestID()}
	// Child of the agent's indication span; covers lookup + callback.
	// With the FB scheme env.Trace() is an O(1) slot read, so the
	// untraced hot path pays only that plus a branch.
	var sp trace.Span
	if tc := env.Trace(); tc.Valid() {
		sp = trace.StartChild(tc, "server.dispatch")
	}
	m.mu.Lock()
	sub := m.subs[id]
	m.mu.Unlock()
	if sub == nil || sub.cb.OnIndication == nil {
		serverTel.dropped.Inc()
		sp.End()
		return
	}
	sub.cb.OnIndication(IndicationEvent{Agent: agent, Env: env, Trace: sp.Context()})
	sp.End()
	serverTel.indications.Inc()
	sub.inds.Inc()
	serverTel.dispatchLat.Observe(time.Since(t0))
}

func (m *subManager) handleSubResponse(agent AgentID, resp *e2ap.SubscriptionResponse) {
	m.mu.Lock()
	sub := m.subs[SubID{Agent: agent, Req: resp.RequestID}]
	m.mu.Unlock()
	if sub != nil && sub.cb.OnAdmitted != nil {
		sub.cb.OnAdmitted(resp)
	}
}

func (m *subManager) handleSubFailure(agent AgentID, f *e2ap.SubscriptionFailure) {
	if sub := m.remove(SubID{Agent: agent, Req: f.RequestID}); sub != nil && sub.cb.OnFailure != nil {
		sub.cb.OnFailure(f.Cause)
	}
}

func (m *subManager) handleSubDeleted(agent AgentID, req e2ap.RequestID) {
	if sub := m.remove(SubID{Agent: agent, Req: req}); sub != nil && sub.cb.OnDeleted != nil {
		sub.cb.OnDeleted()
	}
}

func (m *subManager) handleControlOutcome(agent AgentID, req e2ap.RequestID, outcome []byte, err error) {
	if done := m.takeControl(SubID{Agent: agent, Req: req}); done != nil {
		done(outcome, err)
	}
}

// dropAgent discards all state for a disconnected agent, notifying
// subscribers via OnDeleted and pending controls via an error.
func (m *subManager) dropAgent(agent AgentID) {
	m.mu.Lock()
	var deleted []*subscription
	for id, sub := range m.subs {
		if id.Agent == agent {
			deleted = append(deleted, sub)
			delete(m.subs, id)
			dropSubTelemetry(id)
		}
	}
	serverTel.subsActive.Set(int64(len(m.subs)))
	m.mu.Unlock()
	for _, sub := range deleted {
		if sub.cb.OnDeleted != nil {
			sub.cb.OnDeleted()
		}
	}
	m.abortControls(agent)
}

// abortControls promptly fails the agent's pending controls with
// ErrClosed while leaving subscriptions in place — the suspension half
// of retention: a control answer can never arrive on a dead connection,
// but subscriptions survive for replay.
func (m *subManager) abortControls(agent AgentID) {
	m.mu.Lock()
	var aborted []func([]byte, error)
	for id, done := range m.controls {
		if id.Agent == agent {
			aborted = append(aborted, done)
			delete(m.controls, id)
		}
	}
	m.mu.Unlock()
	for _, done := range aborted {
		done(nil, ErrClosed)
	}
}

// replayItem is one retained subscription to re-establish on reconnect.
type replayItem struct {
	req     e2ap.RequestID
	fnID    uint16
	trigger []byte
	actions []e2ap.Action
}

// replayItems snapshots the agent's subscriptions for re-establishment.
// The original request IDs are returned so replayed subscriptions keep
// their SubIDs, callbacks, and telemetry.
func (m *subManager) replayItems(agent AgentID) []replayItem {
	m.mu.Lock()
	defer m.mu.Unlock()
	var items []replayItem
	for id, sub := range m.subs {
		if id.Agent == agent {
			items = append(items, replayItem{
				req:     id.Req,
				fnID:    sub.fnID,
				trigger: sub.trigger,
				actions: sub.actions,
			})
		}
	}
	return items
}
