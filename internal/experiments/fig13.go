package experiments

import (
	"fmt"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/xapp"
)

// Fig. 13: the RAT-unaware slicing controller (§6.1.2) on a 106 RB NR
// cell at fixed MCS 20, all UEs saturated by downlink iperf.
//
// (a) isolation: t1 two UEs share equally; t2 a third UE joins and the
// "white" UE's share drops below its 50 % requirement; t3 the xApp
// deploys 50/50 NVS slices with the white UE alone in slice 1; t4 the
// share is raised to 66 %.
// (b) static attribution vs sharing: two slices 66/34, the 34 % slice's
// UE goes idle; without sharing its resources are wasted, with NVS the
// 66 % slice takes them.

// Fig13aPhase is one time instance of Fig. 13a.
type Fig13aPhase struct {
	Label string
	// PerUE maps RNTI → Mbps during the phase.
	PerUE map[uint16]float64
	Total float64
}

// Fig13aResult is the Fig. 13a dataset.
type Fig13aResult struct {
	Phases []Fig13aPhase
}

// slicingStation brings up a station exporting MAC stats and the
// slicing SM under a slicing controller (ASN.1 on both levels), and
// returns it with a slicing xApp against that controller.
func slicingStation(cl *closers, phy ran.PHYConfig, node uint64) (*station.Station, *xapp.SliceXApp, error) {
	srv, addr, err := StartServer(e2ap.SchemeASN)
	if err != nil {
		return nil, nil, err
	}
	cl.add(srv.Close)
	sc, err := ctrl.NewSlicingController(srv, sm.SchemeASN, "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	cl.add(sc.Close)
	bs, err := station.New(station.Spec{
		Cell: phy, SM: sm.SchemeASN, Controller: addr,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, node), Scheme: e2ap.SchemeASN},
		SMs:   []uint16{sm.IDMACStats, sm.IDSliceCtrl},
	})
	if err != nil {
		return nil, nil, err
	}
	cl.add(func() error { bs.Close(); return nil })
	if !WaitUntil(waitShort, func() bool { return len(srv.Agents()) == 1 }) {
		return nil, nil, fmt.Errorf("agent connect")
	}
	return bs, xapp.NewSliceXApp("http://"+sc.Addr(), 0), nil
}

// measurePhase runs ms simulated milliseconds and returns per-UE Mbps.
func measurePhase(bs *station.Station, rntis []uint16, ms int) map[uint16]float64 {
	start := make(map[uint16]uint64, len(rntis))
	for _, r := range rntis {
		start[r] = bs.Cell.UEDeliveredBits(r)
	}
	bs.Step(ms)
	out := make(map[uint16]float64, len(rntis))
	for _, r := range rntis {
		out[r] = Mbps(bs.Cell.UEDeliveredBits(r)-start[r], int64(ms))
	}
	return out
}

// Fig13a reproduces Fig. 13a. phaseMS is the duration of each of the
// four time instances (paper: ~15 s each).
func Fig13a(phaseMS int) (*Fig13aResult, error) {
	var cl closers
	defer cl.close()
	bs, x, err := slicingStation(&cl, ran.PHYConfig{RAT: ran.RAT5G, NumRB: 106}, 1)
	if err != nil {
		return nil, err
	}

	attach := func(rnti uint16) error {
		if _, err := bs.Cell.Attach(rnti, "", "208.95", 20); err != nil {
			return err
		}
		return Saturate(bs.Cell, rnti)
	}
	res := &Fig13aResult{}
	record := func(label string, rntis []uint16, ms int) {
		per := measurePhase(bs, rntis, ms)
		total := 0.0
		for _, v := range per {
			total += v
		}
		res.Phases = append(res.Phases, Fig13aPhase{Label: label, PerUE: per, Total: total})
	}

	// t1: two UEs, no slicing — equal shares.
	if err := attach(1); err != nil {
		return nil, err
	}
	if err := attach(2); err != nil {
		return nil, err
	}
	record("t1/None (2 UEs)", []uint16{1, 2}, phaseMS)

	// t2: third UE joins — the white UE (1) drops to a third.
	if err := attach(3); err != nil {
		return nil, err
	}
	record("t2/None (3 UEs)", []uint16{1, 2, 3}, phaseMS)

	// t3: 50/50 NVS slices; UE 1 alone in slice 1.
	if err := x.Deploy(nvsSlices(false, 1, 0.5, 0.5)); err != nil {
		return nil, err
	}
	for rnti, slice := range map[uint16]uint32{1: 1, 2: 2, 3: 2} {
		if err := x.Associate(rnti, slice); err != nil {
			return nil, err
		}
	}
	record("t3/NVS 50-50", []uint16{1, 2, 3}, phaseMS)

	// t4: 66/34.
	if err := x.Deploy(nvsSlices(false, 1, 0.66, 0.34)); err != nil {
		return nil, err
	}
	record("t4/NVS 66-34", []uint16{1, 2, 3}, phaseMS)
	return res, nil
}

// String renders the Fig. 13a table.
func (r *Fig13aResult) String() string {
	rows := make([][]string, 0, len(r.Phases))
	for _, p := range r.Phases {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%.1f", p.PerUE[1]),
			fmt.Sprintf("%.1f", p.PerUE[2]),
			fmt.Sprintf("%.1f", p.PerUE[3]),
			fmt.Sprintf("%.1f", p.Total),
		})
	}
	return "Fig 13a — slice isolation on a 106 RB NR cell (Mbps; UE1 is the 'white' UE)\n" +
		Table([]string{"phase", "UE1", "UE2", "UE3", "total"}, rows)
}

// Fig13bPoint is one throughput sample of Fig. 13b.
type Fig13bPoint struct {
	TimeMS int64
	Gray   float64 // 66 % slice (active UE)
	Black  float64 // 34 % slice (on/off UE)
}

// Fig13bResult holds both Fig. 13b series.
type Fig13bResult struct {
	Static  []Fig13bPoint // sharing disabled
	Sharing []Fig13bPoint // NVS sharing
}

// Fig13b reproduces Fig. 13b: two slices 66/34; the 34 % slice's UE only
// transmits in the middle third of the run. Sampled once per second.
func Fig13b(simMS int) (*Fig13bResult, error) {
	run := func(noShare bool) ([]Fig13bPoint, error) {
		var cl closers
		defer cl.close()
		bs, x, err := slicingStation(&cl, ran.PHYConfig{RAT: ran.RAT5G, NumRB: 106}, 1)
		if err != nil {
			return nil, err
		}
		if _, err := bs.Cell.Attach(1, "", "208.95", 20); err != nil {
			return nil, err
		}
		if err := Saturate(bs.Cell, 1); err != nil {
			return nil, err
		}
		if _, err := bs.Cell.Attach(2, "", "208.95", 20); err != nil {
			return nil, err
		}
		// UE 2 transmits only in the middle third.
		if err := bs.Cell.AddTraffic(2, &ran.Saturating{
			Flow:           ran.FiveTuple{DstIP: 2, DstPort: 5001, Proto: ran.ProtoUDP},
			RateBytesPerMS: 4 * ran.CellCapacityBits(106, 20) / 8,
			StartMS:        int64(simMS / 3),
			StopMS:         int64(2 * simMS / 3),
		}); err != nil {
			return nil, err
		}
		if err := x.Deploy(nvsSlices(noShare, 1, 0.66, 0.34)); err != nil {
			return nil, err
		}
		if err := x.Associate(1, 1); err != nil {
			return nil, err
		}
		if err := x.Associate(2, 2); err != nil {
			return nil, err
		}
		var series []Fig13bPoint
		last1, last2 := bs.Cell.UEDeliveredBits(1), bs.Cell.UEDeliveredBits(2)
		const sample = 1000
		for t := 0; t < simMS; t += sample {
			bs.Step(sample)
			b1, b2 := bs.Cell.UEDeliveredBits(1), bs.Cell.UEDeliveredBits(2)
			series = append(series, Fig13bPoint{
				TimeMS: bs.Cell.Now(),
				Gray:   Mbps(b1-last1, sample),
				Black:  Mbps(b2-last2, sample),
			})
			last1, last2 = b1, b2
		}
		return series, nil
	}
	static, err := run(true)
	if err != nil {
		return nil, err
	}
	sharing, err := run(false)
	if err != nil {
		return nil, err
	}
	return &Fig13bResult{Static: static, Sharing: sharing}, nil
}

// String renders both Fig. 13b series.
func (r *Fig13bResult) String() string {
	rows := make([][]string, 0, len(r.Static))
	for i := range r.Static {
		sh := Fig13bPoint{}
		if i < len(r.Sharing) {
			sh = r.Sharing[i]
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Static[i].TimeMS/1000),
			fmt.Sprintf("%.1f", r.Static[i].Gray),
			fmt.Sprintf("%.1f", r.Static[i].Black),
			fmt.Sprintf("%.1f", sh.Gray),
			fmt.Sprintf("%.1f", sh.Black),
		})
	}
	return "Fig 13b — static attribution vs NVS sharing (Mbps per second; slice2 active in the middle third)\n" +
		Table([]string{"t(s)", "static gray", "static black", "share gray", "share black"}, rows)
}
