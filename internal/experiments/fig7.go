package experiments

import (
	"fmt"

	"flexric/internal/e2ap"
	"flexric/internal/flexran"
	"flexric/internal/sm"
)

// Fig. 7: "Comparison of E2AP/E2SM encoding schemes using E2SM-HW ping".
// The iApp pings the agent through a control message; the agent replies
// with an indication (§5.2). Four encoding combinations (E2AP × E2SM)
// plus the FlexRAN echo baseline, at 100 B and 1500 B payloads.

// EncodingCombo names one E2AP/E2SM scheme pair.
type EncodingCombo struct {
	Name string
	E2AP e2ap.Scheme
	E2SM sm.Scheme
}

// Combos returns the four combinations of Fig. 7 in paper order.
func Combos() []EncodingCombo {
	return []EncodingCombo{
		{"ASN/ASN", e2ap.SchemeASN, sm.SchemeASN},
		{"ASN/FB", e2ap.SchemeASN, sm.SchemeFB},
		{"FB/ASN", e2ap.SchemeFB, sm.SchemeASN},
		{"FB/FB", e2ap.SchemeFB, sm.SchemeFB},
	}
}

// Fig7aRow is one bar of Fig. 7a.
type Fig7aRow struct {
	Combo   string
	Payload int
	RTT     RTTStats
}

// Fig7aResult is the Fig. 7a dataset.
type Fig7aResult struct {
	Rows []Fig7aRow
}

// Fig7a reproduces Fig. 7a: HW ping RTT per encoding combination and the
// FlexRAN baseline, n pings per configuration.
func Fig7a(n int, payloads []int) (*Fig7aResult, error) {
	var systems []system
	for _, combo := range Combos() {
		systems = append(systems, flexricSystem(combo, false))
	}
	res := &Fig7aResult{}
	err := pingSystems(append(systems, flexranSystem), n, payloads, func(name string, payload int, rtt RTTStats) {
		res.Rows = append(res.Rows, Fig7aRow{Combo: name, Payload: payload, RTT: rtt})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the Fig. 7a table.
func (r *Fig7aResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Combo,
			fmt.Sprintf("%dB", row.Payload),
			fmt.Sprintf("%.0f", float64(row.RTT.Min.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.Mean.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.P50.Microseconds())),
			fmt.Sprintf("%.0f", float64(row.RTT.P95.Microseconds())),
			fmt.Sprintf("%d", row.RTT.N),
		})
	}
	return "Fig 7a — E2SM-HW ping round-trip time by encoding (µs)\n" +
		Table([]string{"E2AP/E2SM", "payload", "min", "mean", "p50", "p95", "n"}, rows)
}

// Fig7bRow is one bar of Fig. 7b.
type Fig7bRow struct {
	Combo   string
	Payload int
	// Mbps is the signaling rate for one ping (control + indication)
	// every 1 ms — 4G's TTI, as in the paper.
	Mbps float64
	// BytesPerPing is the on-wire size of one full ping exchange.
	BytesPerPing int
}

// Fig7bResult is the Fig. 7b dataset.
type Fig7bResult struct {
	Rows []Fig7bRow
}

// Fig7b reproduces Fig. 7b: the signaling rate of a 1 kHz ping for every
// encoding combination, plus FlexRAN. Wire sizes are measured by
// encoding the exact messages exchanged.
func Fig7b(payloads []int) (*Fig7bResult, error) {
	if len(payloads) == 0 {
		payloads = []int{100, 1500}
	}
	res := &Fig7bResult{}
	row := func(combo string, size, total int) {
		res.Rows = append(res.Rows, Fig7bRow{Combo: combo, Payload: size, BytesPerPing: total,
			Mbps: float64(total) * 8 * 1000 / 1e6})
	}
	for _, combo := range Combos() {
		codec := e2ap.MustCodec(combo.E2AP)
		for _, size := range payloads {
			ping := &sm.HWPing{Seq: 1, T0: 1, Data: make([]byte, size)}
			inner := sm.EncodeHWPing(combo.E2SM, ping)
			ctl, err := codec.Encode(&e2ap.ControlRequest{
				RequestID:     e2ap.RequestID{Requestor: 2, Instance: 1},
				RANFunctionID: sm.IDHelloWorld,
				Payload:       inner,
			})
			if err != nil {
				return nil, err
			}
			ctlLen := len(ctl)
			ind, err := codec.Encode(&e2ap.Indication{
				RequestID:     e2ap.RequestID{Requestor: 1, Instance: 1},
				RANFunctionID: sm.IDHelloWorld,
				ActionID:      1,
				SN:            1,
				Payload:       inner,
			})
			if err != nil {
				return nil, err
			}
			row(combo.Name, size, ctlLen+len(ind))
		}
	}
	for _, size := range payloads {
		echo := &flexran.Echo{Seq: 1, T0: 1, Data: make([]byte, size)}
		req, err := flexran.Encode(flexran.MsgEchoRequest, echo)
		if err != nil {
			return nil, err
		}
		rep, err := flexran.Encode(flexran.MsgEchoReply, echo)
		if err != nil {
			return nil, err
		}
		row("FlexRAN", size, len(req)+len(rep))
	}
	return res, nil
}

// String renders the Fig. 7b table.
func (r *Fig7bResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Combo,
			fmt.Sprintf("%dB", row.Payload),
			fmt.Sprintf("%.2f", row.Mbps),
			fmt.Sprintf("%d", row.BytesPerPing),
		})
	}
	return "Fig 7b — signaling rate at one ping per 1 ms (Mbps)\n" +
		Table([]string{"E2AP/E2SM", "payload", "Mbps", "B/ping"}, rows)
}
