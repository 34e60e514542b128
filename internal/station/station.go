// Package station builds the simulated base stations of the figures,
// the demos, the examples and the flexric-agent binary: one cell, one
// FlexRIC agent and a bundle of service models picked by RAN function
// ID — the composition of §4, "one agent library and a set of pluggable
// SMs". A Station is driven by an explicit slot loop (Step).
package station

import (
	"fmt"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/sm"
)

// Spec describes one base station.
type Spec struct {
	// Cell is the simulated radio.
	Cell ran.PHYConfig
	// Agent configures the FlexRIC agent (identity, E2AP scheme,
	// resilience, fault injection, ...).
	Agent agent.Config
	// SM is the payload encoding of every service model.
	SM sm.Scheme
	// SMs lists the service models to register, in order, by their
	// sm.ID* RAN function ID.
	SMs []uint16
	// Controller is the E2 address New connects to; empty leaves the
	// agent unconnected, for a caller that connects it later.
	Controller string
}

// Station is a simulated base station: a cell, its agent and the SM
// bundle registered with it.
type Station struct {
	Cell  *ran.Cell
	Agent *agent.Agent
	Fns   []agent.RANFunction
}

// Node returns the global E2 node identity of a station in PLMN 208.95.
func Node(t e2ap.NodeType, id uint64) e2ap.GlobalE2NodeID {
	return e2ap.GlobalE2NodeID{PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: t, NodeID: id}
}

// New builds the cell and the agent, then constructs and registers the
// listed SMs in order. With Controller set it also connects the agent.
func New(spec Spec) (*Station, error) {
	cell, err := ran.NewCell(spec.Cell)
	if err != nil {
		return nil, err
	}
	s := &Station{Cell: cell, Agent: agent.New(spec.Agent)}
	for _, id := range spec.SMs {
		fn, err := newFunction(id, cell, spec.SM, s.Agent)
		if err == nil {
			err = s.Agent.RegisterFunction(fn)
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Fns = append(s.Fns, fn)
	}
	if spec.Controller != "" {
		if _, err := s.Agent.Connect(spec.Controller); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// newFunction constructs the SM with the given RAN function ID. The
// agent is the Visibility of the SMs that report per UE (§4.1.2).
func newFunction(id uint16, cell *ran.Cell, scheme sm.Scheme, a *agent.Agent) (agent.RANFunction, error) {
	switch id {
	case sm.IDMACStats:
		return sm.NewMACStats(cell, scheme, a), nil
	case sm.IDRLCStats:
		return sm.NewRLCStats(cell, scheme, a), nil
	case sm.IDPDCPStats:
		return sm.NewPDCPStats(cell, scheme, a), nil
	case sm.IDSliceCtrl:
		return sm.NewSliceCtrl(cell, scheme), nil
	case sm.IDTrafficCtrl:
		return sm.NewTCCtrl(cell, scheme, a), nil
	case sm.IDRRC:
		return sm.NewRRC(cell, scheme, a), nil
	case sm.IDKPM:
		return sm.NewKPM(cell, scheme), nil
	case sm.IDHelloWorld:
		return sm.NewHW(), nil
	}
	return nil, fmt.Errorf("station: unknown SM ID %d", id)
}

// Step advances the station by n TTIs, ticking the SM reporters after
// each.
func (s *Station) Step(n int) {
	for i := 0; i < n; i++ {
		s.Cell.Step(1)
		sm.TickAll(s.Fns, s.Cell.Now())
	}
}

// Close disconnects the agent.
func (s *Station) Close() { s.Agent.Close() }
