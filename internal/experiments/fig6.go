package experiments

import (
	"fmt"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/flexran"
	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/station"
)

// Fig. 6: "Normalized CPU usage of FlexRIC and FlexRAN" at the agent.
// (a) radio deployments — a 4G 25 RB cell with 3 UEs at MCS 28 and a 5G
// 106 RB cell with 3 UEs at MCS 20, exporting all MAC/RLC/PDCP stats at
// 1 ms; (b) the L2-simulator UE sweep.
//
// CPU is normalized per *simulated* second (the simulator runs faster
// than real time); the baseline column is the user-plane cost without
// any agent, playing the role of the paper's OAI process.

// Fig6aRow is one bar group of Fig. 6a.
type Fig6aRow struct {
	Label       string  // "4G FlexRIC", "4G FlexRAN", "5G FlexRIC"
	AgentCPU    float64 // agent-attributable CPU, % of a core per sim-second
	BaselineCPU float64 // user-plane cost without agent
}

// Fig6aResult is the Fig. 6a dataset.
type Fig6aResult struct {
	Rows  []Fig6aRow
	SimMS int
}

type agentKind int

const (
	agentNone agentKind = iota
	agentFlexRIC
	agentFlexRAN
)

// scenario is one Fig. 6 configuration: a cell of numRB RBs with nUE
// saturating UEs at mcs and, per kind, an agent exporting its MAC, RLC
// and PDCP stats every 1 ms.
type scenario struct {
	kind            agentKind
	rat             ran.RAT
	numRB, mcs, nUE int
}

// up brings the scenario up, adds what it opens to cl and returns the
// step that advances it by ms TTIs.
func (s scenario) up(cl *closers) (func(ms int), error) {
	phy := ran.PHYConfig{RAT: s.rat, NumRB: s.numRB}
	var cell *ran.Cell
	var tti func()
	switch s.kind {
	case agentFlexRIC:
		srv, addr, err := StartServer(e2ap.SchemeFB)
		if err != nil {
			return nil, err
		}
		cl.add(srv.Close)
		// Raw-storing monitor: the §5.1 controller sink.
		ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1})
		st, err := station.New(station.Spec{
			Cell: phy, SM: sm.SchemeFB, Controller: addr,
			Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: e2ap.SchemeFB},
			SMs:   []uint16{sm.IDMACStats, sm.IDRLCStats, sm.IDPDCPStats},
		})
		if err != nil {
			return nil, err
		}
		cl.add(func() error { st.Close(); return nil })
		cell, tti = st.Cell, func() { st.Step(1) }
		// The monitor subscribes on connect; wait for the agent-side
		// subscriptions before measuring.
		if !WaitUntil(waitShort, func() bool {
			n := 0
			for _, fn := range st.Fns {
				n += fn.(*sm.StatsFunction).Subscriptions()
			}
			return n >= 3
		}) {
			return nil, fmt.Errorf("subscriptions not established")
		}
	case agentFlexRAN:
		fc, addr, err := flexran.NewController("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cl.add(fc.Close)
		if cell, err = ran.NewCell(phy); err != nil {
			return nil, err
		}
		fr, err := flexran.NewAgent(1, cell, addr)
		if err != nil {
			return nil, err
		}
		cl.add(fr.Close)
		tti = func() { cell.Step(1); fr.Tick(cell.Now()) }
		// Request stats once the agent registers, then step until reports
		// reach the RIB (the agent takes the request on its own goroutine).
		if !WaitUntil(waitShort, func() bool {
			return fc.RequestStats(1, 1, flexran.FlagMAC|flexran.FlagRLC|flexran.FlagPDCP) == nil
		}) || !WaitUntil(waitShort, func() bool { tti(); return len(fc.Poll()) == 1 }) {
			return nil, fmt.Errorf("flexran agent does not report")
		}
	default:
		var err error
		if cell, err = ran.NewCell(phy); err != nil {
			return nil, err
		}
		tti = func() { cell.Step(1) }
	}

	for i := 1; i <= s.nUE; i++ {
		if _, err := cell.Attach(uint16(i), "", "208.95", s.mcs); err != nil {
			return nil, err
		}
		if err := Saturate(cell, uint16(i)); err != nil {
			return nil, err
		}
	}
	return func(ms int) {
		for i := 0; i < ms; i++ {
			tti()
		}
	}, nil
}

// scenarioCPU brings up every scenario, steps each a tenth of simMS (at
// least 500 TTIs) as warm-up and then simMS in rounds chunks, round
// robin, and returns each one's CPU per simulated second.
func scenarioCPU(simMS, rounds int, scenarios ...scenario) ([]float64, error) {
	var cl closers
	defer cl.close()
	chunk := simMS / rounds
	steps := make([]func(), len(scenarios))
	for i, s := range scenarios {
		run, err := s.up(&cl)
		if err != nil {
			return nil, err
		}
		// A saturated cell's RLC queues grow, and allocate, for its
		// first ~350 TTIs: warm up past that.
		run(max(simMS/10, 500))
		steps[i] = func() { run(chunk) }
	}
	cpu, _ := roundRobin(rounds, steps)
	perSimSecond := make([]float64, len(cpu))
	for i, c := range cpu {
		perSimSecond[i] = 100 * c.Seconds() / (float64(chunk*rounds) / 1000)
	}
	return perSimSecond, nil
}

// Fig6a reproduces Fig. 6a. simMS is the simulated duration per bar
// (paper-scale ≥ 10 s). The user-plane baseline is measured once per
// cell, the two cells stepped round robin in chunks: they do no
// asynchronous work, so each chunk's CPU is its own cell's.
func Fig6a(simMS int) (*Fig6aResult, error) {
	cells := []scenario{{agentNone, ran.RAT4G, 25, 28, 3}, {agentNone, ran.RAT5G, 106, 20, 3}}
	base, err := scenarioCPU(simMS, interleaveRounds, cells...)
	if err != nil {
		return nil, fmt.Errorf("fig6a baseline: %w", err)
	}
	res := &Fig6aResult{SimMS: simMS}
	for _, row := range []struct {
		label string
		kind  agentKind
		cell  int
	}{
		{"4G (8c) FlexRIC", agentFlexRIC, 0},
		{"4G (8c) FlexRAN", agentFlexRAN, 0},
		{"5G (16c) FlexRIC", agentFlexRIC, 1},
	} {
		s := cells[row.cell]
		s.kind = row.kind
		with, err := scenarioCPU(simMS, 1, s)
		if err != nil {
			return nil, fmt.Errorf("fig6a %s: %w", row.label, err)
		}
		res.Rows = append(res.Rows, Fig6aRow{Label: row.label, AgentCPU: max(with[0]-base[row.cell], 0), BaselineCPU: base[row.cell]})
	}
	return res, nil
}

// String renders the Fig. 6a table.
func (r *Fig6aResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			fmt.Sprintf("%.2f", row.AgentCPU),
			fmt.Sprintf("%.2f", row.BaselineCPU),
		})
	}
	return "Fig 6a — agent CPU overhead, radio deployment (%" +
		" of core per simulated second)\n" +
		Table([]string{"config", "agent", "user plane"}, rows)
}

// Fig6bPoint is one x-position of Fig. 6b.
type Fig6bPoint struct {
	UEs     int
	NoAgent float64
	FlexRIC float64
	FlexRAN float64
}

// Fig6bResult is the Fig. 6b dataset.
type Fig6bResult struct {
	Points []Fig6bPoint
	SimMS  int
}

// Fig6b reproduces Fig. 6b: the L2-simulator UE sweep on a 25 RB cell.
// The three scenarios of a point are up together and measured one after
// the other.
func Fig6b(ueCounts []int, simMS int) (*Fig6bResult, error) {
	if len(ueCounts) == 0 {
		ueCounts = []int{1, 4, 8, 16, 24, 32}
	}
	res := &Fig6bResult{SimMS: simMS}
	for _, n := range ueCounts {
		cpu, err := scenarioCPU(simMS, 1, scenario{agentNone, ran.RAT4G, 25, 28, n},
			scenario{agentFlexRIC, ran.RAT4G, 25, 28, n}, scenario{agentFlexRAN, ran.RAT4G, 25, 28, n})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig6bPoint{UEs: n, NoAgent: cpu[0], FlexRIC: cpu[1], FlexRAN: cpu[2]})
	}
	return res, nil
}

// String renders the Fig. 6b series.
func (r *Fig6bResult) String() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.UEs),
			fmt.Sprintf("%.2f", p.NoAgent),
			fmt.Sprintf("%.2f", p.FlexRIC),
			fmt.Sprintf("%.2f", p.FlexRAN),
		})
	}
	return "Fig 6b — agent CPU vs connected UEs, L2 simulator (% of core per simulated second)\n" +
		Table([]string{"UEs", "no agent", "FlexRIC", "FlexRAN"}, rows)
}
