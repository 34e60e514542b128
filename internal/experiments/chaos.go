package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/faultinject"
	"flexric/internal/ran"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/telemetry"
)

// Chaos is the resilience subsystem's acceptance experiment (`make
// chaos-demo`): a monitoring control loop runs over a fault-injected
// transport — scripted connection drops on the agent side, a listener
// blackout on the controller side — and must survive without losing a
// subscription. The agent's reconnect supervisor redials with backoff
// and re-runs E2 setup; the server re-admits the node under its old
// AgentID and replays the monitor's subscription; the indication stream
// resumes with nobody above the SDK noticing.

// ChaosOptions parameterizes one chaos run.
type ChaosOptions struct {
	E2Scheme e2ap.Scheme
	SMScheme sm.Scheme
}

// ChaosResult reports what the scripted faults did and how the system
// recovered.
type ChaosResult struct {
	Scheme          string
	Drops           uint64 // connection drops fired by the plan
	BlackoutRejects uint64 // redials rejected by the listener blackout
	Reconnects      uint64 // re-admissions observed by the server
	SubsReplayed    uint64 // subscriptions re-established by the server
	IndsBefore      uint64 // monitor indications before the first fault
	IndsAfter       uint64 // monitor indications after recovery
	SubsBefore      int64  // active subscriptions before the first fault
	SubsAfter       int64  // active subscriptions after recovery
}

// String renders the result as a table.
func (r *ChaosResult) String() string {
	return Table(
		[]string{"scheme", "drops", "blackouts", "reconnects", "replayed", "inds before", "inds after", "subs before", "subs after"},
		[][]string{{
			r.Scheme,
			fmt.Sprint(r.Drops),
			fmt.Sprint(r.BlackoutRejects),
			fmt.Sprint(r.Reconnects),
			fmt.Sprint(r.SubsReplayed),
			fmt.Sprint(r.IndsBefore),
			fmt.Sprint(r.IndsAfter),
			fmt.Sprint(r.SubsBefore),
			fmt.Sprint(r.SubsAfter),
		}},
	)
}

func activeSubs() int64 {
	if n := telemetry.TakeSnapshot().Child("server"); n != nil {
		return n.Gauges["subscriptions_active"]
	}
	return 0
}

// Chaos runs the scripted fault timeline against a live monitoring loop
// and returns the recovery evidence.
func Chaos(opts ChaosOptions) (*ChaosResult, error) {
	// Two cuts of the agent's controller connection, each after 120
	// frames; after the first accept, the listener rejects two redials.
	connPlan, err := faultinject.Parse("drop@120,drop@120")
	if err != nil {
		return nil, err
	}
	lisPlan, err := faultinject.Parse("blackout@1=2")
	if err != nil {
		return nil, err
	}

	resCfg := &resilience.Config{
		Backoff: resilience.BackoffPolicy{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}
	srv := server.New(server.Config{
		Scheme:       opts.E2Scheme,
		Resilience:   resCfg,
		WrapListener: lisPlan.WrapListener,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	var reconnects atomic.Uint64
	srv.OnAgentReconnect(func(server.AgentInfo) { reconnects.Add(1) })
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{
		Scheme: opts.SMScheme, PeriodMS: 1, Layers: ctrl.MonMAC, Decode: true,
	})

	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: opts.SMScheme, Controller: addr,
		Agent: agent.Config{
			NodeID: station.Node(e2ap.NodeENB, 1), Scheme: opts.E2Scheme,
			Resilience: resCfg, WrapConn: connPlan.WrapConn,
		},
		SMs: []uint16{sm.IDMACStats},
	})
	if err != nil {
		return nil, err
	}
	defer bs.Close()
	if _, err := bs.Cell.Attach(1, "", "208.95", 20); err != nil {
		return nil, err
	}

	replayed0 := telemetry.TakeSnapshot().Counter("server.subs_replayed")

	// drive advances the simulated base station (the indication source)
	// while polling cond; the supervisor and the server react in real
	// time underneath.
	drive := func(what string, cond func() bool) error {
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("chaos: timeout waiting for %s", what)
			}
			bs.Step(20)
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	res := &ChaosResult{Scheme: string(opts.E2Scheme)}

	// Phase 1: healthy baseline — the monitor's subscription is live and
	// indications flow.
	if err := drive("baseline indications", func() bool {
		n, _ := mon.Counters()
		return n >= 50
	}); err != nil {
		return nil, err
	}
	res.IndsBefore, _ = mon.Counters()
	res.SubsBefore = activeSubs()

	// Phase 2: the scripted faults — every drop directive fires, every
	// cut ends in a re-admission (redials rejected by the blackout are
	// absorbed by the supervisor's backoff in between).
	want := uint64(len(connPlan.Drops))
	if err := drive("drops and reconnects", func() bool {
		return connPlan.DropsFired() >= want && reconnects.Load() >= want
	}); err != nil {
		return nil, err
	}

	// Phase 3: recovery — the indication stream is flowing again on the
	// replayed subscription.
	base, _ := mon.Counters()
	if err := drive("indication stream resumption", func() bool {
		n, _ := mon.Counters()
		return n >= base+50
	}); err != nil {
		return nil, err
	}

	res.IndsAfter, _ = mon.Counters()
	res.Drops = connPlan.DropsFired()
	res.BlackoutRejects = lisPlan.BlackoutRejects()
	res.Reconnects = reconnects.Load()
	res.SubsReplayed = telemetry.TakeSnapshot().Counter("server.subs_replayed") - replayed0
	res.SubsAfter = activeSubs()
	return res, nil
}
