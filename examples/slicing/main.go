// Slicing: the RAT-unaware slicing controller of §6.1.2 end to end.
// A 20 MHz NR cell serves three saturated UEs; an xApp deploys NVS
// slices over the controller's REST northbound and shifts resource
// shares, reproducing the isolation timeline of Fig. 13a.
//
//	go run ./examples/slicing
package main

import (
	"fmt"
	"log"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/xapp"
)

func main() {
	// Controller: server library + slicing specialization (internal
	// stats DB, SC SM manager, REST northbound — Table 4).
	srv := server.New(server.Config{})
	e2Addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	sc, err := ctrl.NewSlicingController(srv, sm.SchemeASN, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Close()
	fmt.Println("slicing controller REST on http://" + sc.Addr())

	// Base station: 106 RB NR cell with MAC stats + SC SM.
	bs, err := station.New(station.Spec{
		Cell:       ran.PHYConfig{RAT: ran.RAT5G, NumRB: 106, Band: 78},
		Agent:      agent.Config{NodeID: station.Node(e2ap.NodeGNB, 1)},
		SM:         sm.SchemeASN,
		SMs:        []uint16{sm.IDMACStats, sm.IDSliceCtrl},
		Controller: e2Addr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer bs.Close()

	// Three saturated UEs at MCS 20, like the paper's Pixel-5 setup.
	for i := uint16(1); i <= 3; i++ {
		if _, err := bs.Cell.Attach(i, "", "208.95", 20); err != nil {
			log.Fatal(err)
		}
		if err := bs.Cell.AddTraffic(i, &ran.Saturating{
			Flow:           ran.FiveTuple{DstIP: uint32(i), DstPort: 5001, Proto: ran.ProtoUDP},
			RateBytesPerMS: 1 << 20,
		}); err != nil {
			log.Fatal(err)
		}
	}

	run := func(label string, ms int) {
		start := make(map[uint16]uint64)
		for i := uint16(1); i <= 3; i++ {
			start[i] = bs.Cell.UEDeliveredBits(i)
		}
		bs.Step(ms)
		fmt.Printf("%-22s", label)
		for i := uint16(1); i <= 3; i++ {
			mbps := float64(bs.Cell.UEDeliveredBits(i)-start[i]) / float64(ms) * 1000 / 1e6
			fmt.Printf("  UE%d %5.1f Mbps", i, mbps)
		}
		fmt.Println()
	}

	x := xapp.NewSliceXApp("http://"+sc.Addr(), 0)

	// Phase 1: no slicing — the proportional-fair pool splits equally.
	run("no slicing", 3000)

	// Phase 2: 50/50 slices, UE1 alone in slice 1 → UE1 gets half the
	// cell even against two competitors.
	if err := x.Deploy(ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 1, Kind: "capacity", Capacity: 0.5, UESched: "pf"},
			{ID: 2, Kind: "capacity", Capacity: 0.5, UESched: "pf"},
		},
	}); err != nil {
		log.Fatal(err)
	}
	for rnti, slice := range map[uint16]uint32{1: 1, 2: 2, 3: 2} {
		if err := x.Associate(rnti, slice); err != nil {
			log.Fatal(err)
		}
	}
	run("NVS 50/50 (UE1 alone)", 3000)

	// Phase 3: raise slice 1 to 66 %.
	if err := x.Deploy(ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 1, Kind: "capacity", Capacity: 0.66, UESched: "pf"},
			{ID: 2, Kind: "capacity", Capacity: 0.34, UESched: "pf"},
		},
	}); err != nil {
		log.Fatal(err)
	}
	run("NVS 66/34", 3000)
}
