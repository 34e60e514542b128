package experiments

import (
	"fmt"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/flexran"
	"flexric/internal/metrics"
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

// agentScenario measures CPU per simulated second for a BS workload.
type agentKind int

const (
	agentNone agentKind = iota
	agentFlexRIC
	agentFlexRAN
)

func measureAgentCPU(kind agentKind, rat ran.RAT, numRB, mcs, nUE, simMS int) (float64, error) {
	phy := ran.PHYConfig{RAT: rat, NumRB: numRB}
	var cell *ran.Cell
	var st *station.Station
	var fr *flexran.Agent
	switch kind {
	case agentFlexRIC:
		srv, addr, err := StartServer(e2ap.SchemeFB)
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		// Raw-storing monitor: the §5.1 controller sink.
		ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1})
		st, err = station.New(station.Spec{
			Cell: phy, SM: sm.SchemeFB, Controller: addr,
			Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: e2ap.SchemeFB},
			SMs:   []uint16{sm.IDMACStats, sm.IDRLCStats, sm.IDPDCPStats},
		})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		cell = st.Cell
		if !WaitUntil(waitShort, func() bool { return len(srv.Agents()) == 1 }) {
			return 0, fmt.Errorf("agent did not connect")
		}
		// The monitor subscribes on connect; wait for the agent-side
		// subscriptions before measuring.
		if !WaitUntil(waitShort, func() bool {
			n := 0
			for _, fn := range st.Fns {
				n += fn.(*sm.StatsFunction).Subscriptions()
			}
			return n >= 3
		}) {
			return 0, fmt.Errorf("subscriptions not established")
		}
	case agentFlexRAN:
		fc, addr, err := flexran.NewController("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer fc.Close()
		if cell, err = ran.NewCell(phy); err != nil {
			return 0, err
		}
		fr, err = flexran.NewAgent(1, cell, addr)
		if err != nil {
			return 0, err
		}
		defer fr.Close()
		if !WaitUntil(waitShort, func() bool { return len(fc.Agents()) == 1 }) {
			return 0, fmt.Errorf("flexran agent did not register")
		}
		if err := fc.RequestStats(1, 1, flexran.FlagMAC|flexran.FlagRLC|flexran.FlagPDCP); err != nil {
			return 0, err
		}
	default:
		var err error
		if cell, err = ran.NewCell(phy); err != nil {
			return 0, err
		}
	}

	for i := 1; i <= nUE; i++ {
		if _, err := cell.Attach(uint16(i), "", "208.95", mcs); err != nil {
			return 0, err
		}
		if err := Saturate(cell, uint16(i)); err != nil {
			return 0, err
		}
	}
	// Warm-up, then measure.
	step := cell.Step
	if st != nil {
		step = st.Step
	}
	run := func(ms int) {
		for i := 0; i < ms; i++ {
			step(1)
			if fr != nil {
				fr.Tick(cell.Now())
			}
		}
	}
	run(simMS / 10)
	m := metrics.StartCPU()
	run(simMS)
	return m.CPUPerSimSecond(int64(simMS)), nil
}

// Fig6a reproduces Fig. 6a. simMS is the simulated duration per bar
// (paper-scale ≥ 10 s).
func Fig6a(simMS int) (*Fig6aResult, error) {
	type cfg struct {
		label string
		kind  agentKind
		rat   ran.RAT
		numRB, mcs,
		nUE int
	}
	cfgs := []cfg{
		{"4G (8c) FlexRIC", agentFlexRIC, ran.RAT4G, 25, 28, 3},
		{"4G (8c) FlexRAN", agentFlexRAN, ran.RAT4G, 25, 28, 3},
		{"5G (16c) FlexRIC", agentFlexRIC, ran.RAT5G, 106, 20, 3},
	}
	res := &Fig6aResult{SimMS: simMS}
	for _, c := range cfgs {
		base, err := measureAgentCPU(agentNone, c.rat, c.numRB, c.mcs, c.nUE, simMS)
		if err != nil {
			return nil, fmt.Errorf("fig6a %s baseline: %w", c.label, err)
		}
		with, err := measureAgentCPU(c.kind, c.rat, c.numRB, c.mcs, c.nUE, simMS)
		if err != nil {
			return nil, fmt.Errorf("fig6a %s: %w", c.label, err)
		}
		over := with - base
		if over < 0 {
			over = 0
		}
		res.Rows = append(res.Rows, Fig6aRow{Label: c.label, AgentCPU: over, BaselineCPU: base})
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
func Fig6b(ueCounts []int, simMS int) (*Fig6bResult, error) {
	if len(ueCounts) == 0 {
		ueCounts = []int{1, 4, 8, 16, 24, 32}
	}
	res := &Fig6bResult{SimMS: simMS}
	for _, n := range ueCounts {
		var p Fig6bPoint
		p.UEs = n
		var err error
		if p.NoAgent, err = measureAgentCPU(agentNone, ran.RAT4G, 25, 28, n, simMS); err != nil {
			return nil, err
		}
		if p.FlexRIC, err = measureAgentCPU(agentFlexRIC, ran.RAT4G, 25, 28, n, simMS); err != nil {
			return nil, err
		}
		if p.FlexRAN, err = measureAgentCPU(agentFlexRAN, ran.RAT4G, 25, 28, n, simMS); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
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
