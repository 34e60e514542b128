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

// Fig. 15: recursive slicing (§6.2). Two operators, A and B, each with
// two UEs. (a) dedicated infrastructures: two 25 RB eNBs, one slicing
// controller each. (b) shared infrastructure: one 50 RB eNB behind the
// virtualization controller, both operators at a 50 % SLA running the
// SAME slicing controllers against their virtual network.
//
// Timeline (seconds, scaled to the run length):
//
//	~16 %: operator A creates sub-slices 66/34 and moves UE 2 to the
//	       34 % sub-slice (paper: "at around 8 and 11 s").
//	50-83 %: operator B's UE 3 stops transmitting — in the shared case
//	       its resources flow first to B's other UE, and when B is fully
//	       idle, to operator A (multiplexing gain); in the dedicated
//	       case they are wasted.

// Fig15Point is one per-second throughput sample.
type Fig15Point struct {
	TimeMS int64
	UE     [4]float64 // Mbps of UEs 1..4 (index 0..3)
}

// Fig15Series is one deployment's timeline.
type Fig15Series struct {
	Deployment string // "dedicated" or "shared"
	Points     []Fig15Point
}

// Fig15Result is the full Fig. 15 dataset.
type Fig15Result struct {
	Dedicated *Fig15Series
	Shared    *Fig15Series
}

// fig15Traffic wires the experiment's traffic pattern: all UEs saturate,
// but UE 3 pauses in [pauseStart, pauseStop); UE 4 pauses in the final
// sixth of the run, leaving operator B fully idle.
func fig15Traffic(cell *ran.Cell, rnti uint16, simMS int) error {
	src := &ran.Saturating{
		Flow:           ran.FiveTuple{DstIP: uint32(rnti), DstPort: 5001, Proto: ran.ProtoUDP},
		RateBytesPerMS: 4 * ran.CellCapacityBits(50, 28) / 8,
	}
	switch rnti {
	case 3:
		src.StopMS = int64(simMS / 2)
	case 4:
		src.StopMS = int64(5 * simMS / 6)
	}
	return cell.AddTraffic(rnti, src)
}

// opASubSlices is operator A's reconfiguration: sub-slices 66/34 with
// UE 2 moved into the smaller one.
func opASubSlices(x *xapp.SliceXApp) error {
	if err := x.Deploy(nvsSlices(false, 0, 0.66, 0.34)); err != nil {
		return err
	}
	return x.Associate(2, 1)
}

// Fig15 reproduces both deployments. simMS is the run length in
// simulated ms (paper: 50 s).
func Fig15(simMS int) (*Fig15Result, error) {
	ded, err := fig15Dedicated(simMS)
	if err != nil {
		return nil, fmt.Errorf("dedicated: %w", err)
	}
	sh, err := fig15Shared(simMS)
	if err != nil {
		return nil, fmt.Errorf("shared: %w", err)
	}
	return &Fig15Result{Dedicated: ded, Shared: sh}, nil
}

// fig15Dedicated: two 25 RB eNBs, one per operator, each with its own
// slicing controller.
func fig15Dedicated(simMS int) (*Fig15Series, error) {
	var cl closers
	defer cl.close()
	var bss [2]*station.Station
	var xA *xapp.SliceXApp
	for i := range bss {
		bs, x, err := slicingStation(&cl, ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, uint64(i+1))
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		bss[i] = bs
		if i == 0 {
			xA = x
		}
	}
	// Operator A's UEs 1,2 on eNB 0; operator B's UEs 3,4 on eNB 1.
	for i, rnti := range []uint16{1, 2, 3, 4} {
		bs := bss[i/2]
		if _, err := bs.Cell.Attach(rnti, "", "208.95", 28); err != nil {
			return nil, err
		}
		if err := fig15Traffic(bs.Cell, rnti, simMS); err != nil {
			return nil, err
		}
	}

	// Step both cells in lockstep.
	step := func(ms int) {
		for s := 0; s < ms; s++ {
			for _, bs := range bss {
				bs.Step(1)
			}
		}
	}
	return fig15Timeline("dedicated", simMS, xA, step, [4]*ran.Cell{bss[0].Cell, bss[0].Cell, bss[1].Cell, bss[1].Cell})
}

// fig15Shared: one 50 RB eNB, the virtualization controller, and the
// same slicing controllers as tenants.
func fig15Shared(simMS int) (*Fig15Series, error) {
	// Tenant controllers.
	srvA, addrA, err := StartServer(e2ap.SchemeASN)
	if err != nil {
		return nil, err
	}
	defer srvA.Close()
	scA, err := ctrl.NewSlicingController(srvA, sm.SchemeASN, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer scA.Close()
	srvB, addrB, err := StartServer(e2ap.SchemeASN)
	if err != nil {
		return nil, err
	}
	defer srvB.Close()
	scB, err := ctrl.NewSlicingController(srvB, sm.SchemeASN, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer scB.Close()

	vc, southAddr, err := ctrl.NewVirtCtrl(ctrl.VirtConfig{
		Scheme: sm.SchemeASN,
		Tenants: []ctrl.Tenant{
			{Name: "A", SLA: 0.5, Subscribers: map[uint16]bool{1: true, 2: true}},
			{Name: "B", SLA: 0.5, Subscribers: map[uint16]bool{3: true, 4: true}},
		},
		SouthAddr: "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	defer vc.Close()

	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 50}, SM: sm.SchemeASN, Controller: southAddr,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: e2ap.SchemeASN},
		SMs:   []uint16{sm.IDMACStats, sm.IDSliceCtrl},
	})
	if err != nil {
		return nil, err
	}
	defer bs.Close()
	for _, rnti := range []uint16{1, 2, 3, 4} {
		if _, err := bs.Cell.Attach(rnti, "", "208.95", 28); err != nil {
			return nil, err
		}
		if err := fig15Traffic(bs.Cell, rnti, simMS); err != nil {
			return nil, err
		}
	}
	if !WaitUntil(waitShort, func() bool { return bs.Cell.SliceMode() == ran.SliceNVS }) {
		return nil, fmt.Errorf("virt layer did not install initial slices")
	}
	if err := vc.ConnectTenant(0, addrA); err != nil {
		return nil, err
	}
	if err := vc.ConnectTenant(1, addrB); err != nil {
		return nil, err
	}
	if !WaitUntil(waitShort, func() bool {
		return len(srvA.Agents()) == 1 && len(srvB.Agents()) == 1
	}) {
		return nil, fmt.Errorf("tenant controllers not attached")
	}
	xA := xapp.NewSliceXApp("http://"+scA.Addr(), 0)

	return fig15Timeline("shared", simMS, xA, bs.Step, [4]*ran.Cell{bs.Cell, bs.Cell, bs.Cell, bs.Cell})
}

// fig15Timeline runs simMS in 1 s samples: operator A's xApp
// reconfigures at a sixth of the run, and each sample records the
// throughput of UEs 1–4, UE i+1 served by cells[i].
func fig15Timeline(deployment string, simMS int, xA *xapp.SliceXApp, step func(ms int), cells [4]*ran.Cell) (*Fig15Series, error) {
	series := &Fig15Series{Deployment: deployment}
	reconfDone := false
	var last [4]uint64
	const sample = 1000
	for t := 0; t < simMS; t += sample {
		if !reconfDone && t >= simMS/6 {
			if err := opASubSlices(xA); err != nil {
				return nil, err
			}
			reconfDone = true
		}
		step(sample)
		p := Fig15Point{TimeMS: cells[0].Now()}
		for i, cell := range cells {
			bits := cell.UEDeliveredBits(uint16(i + 1))
			p.UE[i] = Mbps(bits-last[i], sample)
			last[i] = bits
		}
		series.Points = append(series.Points, p)
	}
	return series, nil
}

// String renders both Fig. 15 timelines.
func (r *Fig15Result) String() string {
	render := func(s *Fig15Series) string {
		rows := make([][]string, 0, len(s.Points))
		for _, p := range s.Points {
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.TimeMS/1000),
				fmt.Sprintf("%.1f", p.UE[0]),
				fmt.Sprintf("%.1f", p.UE[1]),
				fmt.Sprintf("%.1f", p.UE[2]),
				fmt.Sprintf("%.1f", p.UE[3]),
			})
		}
		return fmt.Sprintf("Fig 15 (%s) — per-UE throughput (Mbps; A owns UE1-2, B owns UE3-4)\n", s.Deployment) +
			Table([]string{"t(s)", "UE1", "UE2", "UE3", "UE4"}, rows)
	}
	return render(r.Dedicated) + "\n" + render(r.Shared)
}
