package agent

import (
	"time"

	"flexric/internal/resilience"
	"flexric/internal/telemetry"
	"flexric/internal/trace"
)

// supervise is the agent-side recovery loop of the resilience subsystem
// (enabled by Config.Resilience): it runs the connection's receive loop
// and, when the association dies — conn drop, dead peer, controller
// restart — re-establishes it:
//
//  1. redial, spaced by capped exponential backoff with seeded jitter
//     (resilience.Backoff), interruptible by Agent.Close;
//  2. re-run E2 setup announcing the registered RAN functions, so the
//     controller can re-admit the node and replay its subscriptions;
//  3. swap the new transport under the send lock — IndicationSenders
//     hold the conn, not the transport, so live senders (the base
//     station's tick loop among them) keep working unchanged;
//  4. resume the receive loop.
//
// The loop ends when the agent closes or MaxAttempts consecutive
// redials fail. Each recovery is wrapped in an "agent.reconnect" trace
// span and counted in agent.reconnects / agent.reconnect_failures.
func (c *conn) supervise() {
	a := c.agent
	c.recvLoop()
	bo := resilience.NewBackoff(a.res.Backoff)
	attempts := 0
	for !a.closed.Load() {
		// Reap the dead transport before redialing: idempotent, and it
		// stops the old keepalive loop promptly.
		c.closeTransport()
		addr := c.addr
		if a.cfg.Rehome != nil {
			addr = a.cfg.Rehome(attempts, addr)
		}
		sp := trace.StartRoot("agent.reconnect")
		tc, err := a.dialAndSetup(addr)
		sp.End()
		if err != nil {
			agentTel.reconnectFailures.Inc()
			attempts++
			if a.res.MaxAttempts > 0 && attempts >= a.res.MaxAttempts {
				agentTel.reconnectGiveups.Inc()
				return
			}
			d := bo.Next()
			if telemetry.Enabled {
				agentTel.reconnectBackoff.Observe(d)
			}
			wait := time.NewTimer(d)
			select {
			case <-wait.C:
			case <-a.closeCh:
				wait.Stop()
				return
			}
			continue
		}
		c.sendMu.Lock()
		c.tc = tc
		c.sendMu.Unlock()
		// The association landed on addr (possibly a re-home target);
		// future drops start their walk from it.
		c.addr = addr
		// Close may have run while the swap was in flight; it closed the
		// transport it saw, which might have been the old one.
		if a.closed.Load() {
			tc.Close()
			return
		}
		attempts = 0
		bo.Reset()
		agentTel.reconnects.Inc()
		c.recvLoop()
	}
}
