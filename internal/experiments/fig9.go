package experiments

import (
	"fmt"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/oranric"
	"flexric/internal/sm"
)

// Fig. 9: "Comparison of O-RAN RIC and (dockerized) FlexRIC" (§5.4).
// (a) two-hop ping RTT: FlexRIC with a relaying controller (FB/FB and
// ASN/ASN) against the O-RAN pipeline (agent → E2T → xApp).
// (b) the monitoring use case: 10 dummy agents × 32 UEs @1 ms; CPU and
// memory of the whole platform.

// Fig9aRow is one bar group of Fig. 9a.
type Fig9aRow struct {
	System  string // "FB/FB", "ASN/ASN", "O-RAN"
	Payload int
	RTT     RTTStats
}

// Fig9aResult is the Fig. 9a dataset.
type Fig9aResult struct {
	Rows []Fig9aRow
}

// Fig9a reproduces Fig. 9a with n pings per configuration.
func Fig9a(n int, payloads []int) (*Fig9aResult, error) {
	systems := []system{
		// FlexRIC two-hop: parent server ← relay ← agent.
		flexricSystem(EncodingCombo{"FB/FB", e2ap.SchemeFB, sm.SchemeFB}, true),
		flexricSystem(EncodingCombo{"ASN/ASN", e2ap.SchemeASN, sm.SchemeASN}, true),
		oranSystem,
	}
	res := &Fig9aResult{}
	err := pingSystems(systems, n, payloads, func(name string, payload int, rtt RTTStats) {
		res.Rows = append(res.Rows, Fig9aRow{System: name, Payload: payload, RTT: rtt})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the Fig. 9a table.
func (r *Fig9aResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.System,
			fmt.Sprintf("%dB", row.Payload),
			fmt.Sprintf("%.0f", float64(row.RTT.Mean.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.P50.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.P95.Microseconds())),
		})
	}
	return "Fig 9a — two-hop ping RTT (µs)\n" +
		Table([]string{"system", "payload", "mean", "p50", "p95"}, rows)
}

// Fig9bResult is the Fig. 9b dataset.
type Fig9bResult struct {
	FlexRICCPU float64
	ORANCPU    float64
	// FlexRICMem is measured controller state; ORANMem adds the modeled
	// always-on platform residency (paper: docker stats across the 15
	// components + xApp).
	FlexRICMem float64
	ORANMem    float64
	Agents     int
	Duration   time.Duration
	// DoubleDecodes diagnoses the O-RAN pipeline (E2T + xApp decodes).
	E2TDecodes, XAppDecodes uint64
}

// Fig9b reproduces Fig. 9b: the monitoring use case on both platforms,
// one after the other (each also reports its heap growth), with
// O-RAN-standard encoding on both.
func Fig9b(agents int, d time.Duration) (*Fig9bResult, error) {
	res := &Fig9bResult{Agents: agents, Duration: d}
	flexric, err := flexricRig(e2ap.SchemeASN, sm.SchemeASN, agents)
	if err != nil {
		return nil, err
	}
	if res.FlexRICCPU, res.FlexRICMem, err = flexric.measure(d); err != nil {
		return nil, err
	}
	oran, ric, err := oranRig(agents)
	if err != nil {
		return nil, err
	}
	if res.ORANCPU, res.ORANMem, err = oran.measure(d); err != nil {
		return nil, err
	}
	res.ORANMem += float64(oranric.PlatformResidentMB()) + oranric.XAppResidentMB
	res.E2TDecodes, res.XAppDecodes = ric.DoubleDecodes()
	return res, nil
}

// String renders the Fig. 9b table.
func (r *Fig9bResult) String() string {
	rows := [][]string{
		{"FlexRIC", fmt.Sprintf("%.2f", r.FlexRICCPU), fmt.Sprintf("%.1f", r.FlexRICMem)},
		{"O-RAN RIC", fmt.Sprintf("%.2f", r.ORANCPU), fmt.Sprintf("%.1f", r.ORANMem)},
	}
	return fmt.Sprintf("Fig 9b — monitoring use case, %d agents x 32 UEs @1ms, %v (O-RAN decodes: e2t=%d xapp=%d)\n",
		r.Agents, r.Duration, r.E2TDecodes, r.XAppDecodes) +
		Table([]string{"platform", "CPU %", "memory MB"}, rows)
}
