// Recursive slicing (§6.2): two operators share one 50 RB eNB through
// the virtualization controller. Each operator runs an UNMODIFIED
// slicing controller against its virtual network (50 % SLA ⇒ 100 %
// virtual resources); the virtualization layer scales shares per
// Appendix B, remaps slice IDs into disjoint intervals, and partitions
// the MAC statistics so each operator only sees its own subscribers.
//
//	go run ./examples/recursive
package main

import (
	"fmt"
	"log"
	"time"

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
	// Tenant controllers: standard slicing controllers, one per operator.
	mkTenant := func(name string) (*server.Server, string, *ctrl.SlicingController) {
		srv := server.New(server.Config{})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		sc, err := ctrl.NewSlicingController(srv, sm.SchemeASN, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("operator %s slicing controller: http://%s\n", name, sc.Addr())
		return srv, addr, sc
	}
	srvA, addrA, scA := mkTenant("A")
	defer srvA.Close()
	defer scA.Close()
	srvB, addrB, scB := mkTenant("B")
	defer srvB.Close()
	defer scB.Close()

	// Virtualization controller: operator A owns UEs 1-2, B owns 3-4,
	// both at a 50 % SLA.
	vc, southAddr, err := ctrl.NewVirtCtrl(ctrl.VirtConfig{
		Scheme: sm.SchemeASN,
		Tenants: []ctrl.Tenant{
			{Name: "A", SLA: 0.5, Subscribers: map[uint16]bool{1: true, 2: true}},
			{Name: "B", SLA: 0.5, Subscribers: map[uint16]bool{3: true, 4: true}},
		},
		SouthAddr: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer vc.Close()

	// Shared infrastructure: one 50 RB (10 MHz) eNB, four saturated UEs.
	// Its agent connects once the UEs are attached.
	bs, err := station.New(station.Spec{
		Cell:  ran.PHYConfig{RAT: ran.RAT4G, NumRB: 50, Band: 7},
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1)},
		SM:    sm.SchemeASN,
		SMs:   []uint16{sm.IDMACStats, sm.IDSliceCtrl},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer bs.Close()
	for i := uint16(1); i <= 4; i++ {
		if _, err := bs.Cell.Attach(i, "", "208.95", 28); err != nil {
			log.Fatal(err)
		}
		if err := bs.Cell.AddTraffic(i, &ran.Saturating{
			Flow:           ran.FiveTuple{DstIP: uint32(i), DstPort: 5001, Proto: ran.ProtoUDP},
			RateBytesPerMS: 1 << 20,
		}); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := bs.Agent.Connect(southAddr); err != nil {
		log.Fatal(err)
	}

	// Wait for the virtualization layer to install per-tenant slices,
	// then attach the tenant controllers (in tenant order).
	for bs.Cell.SliceMode() != ran.SliceNVS {
		time.Sleep(5 * time.Millisecond)
	}
	if err := vc.ConnectTenant(0, addrA); err != nil {
		log.Fatal(err)
	}
	if err := vc.ConnectTenant(1, addrB); err != nil {
		log.Fatal(err)
	}

	report := func(label string, ms int) {
		start := make(map[uint16]uint64)
		for i := uint16(1); i <= 4; i++ {
			start[i] = bs.Cell.UEDeliveredBits(i)
		}
		bs.Step(ms)
		fmt.Printf("%-34s", label)
		for i := uint16(1); i <= 4; i++ {
			mbps := float64(bs.Cell.UEDeliveredBits(i)-start[i]) / float64(ms) * 1000 / 1e6
			fmt.Printf("  UE%d %5.1f", i, mbps)
		}
		fmt.Println(" (Mbps)")
	}

	report("initial: both tenants 50% SLA", 3000)

	// Operator A splits its virtual network 66/34 — through its own
	// controller, oblivious that it only owns half the spectrum.
	xA := xapp.NewSliceXApp("http://"+scA.Addr(), 0)
	if err := xA.Deploy(ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 0, Kind: "capacity", Capacity: 0.66, UESched: "pf"},
			{ID: 1, Kind: "capacity", Capacity: 0.34, UESched: "pf"},
		},
	}); err != nil {
		log.Fatal(err)
	}
	if err := xA.Associate(2, 1); err != nil {
		log.Fatal(err)
	}
	report("A sub-slices 66/34 (B unaffected)", 3000)

	// Operator A's virtual view vs the physical truth.
	if st, err := xA.Status(); err == nil {
		fmt.Printf("operator A's virtual slices: ")
		for _, s := range st.Slices {
			fmt.Printf("[id=%d cap=%.0f%%] ", s.ID, float64(s.CapacityQ)/10000)
		}
		fmt.Println()
	}
	fmt.Printf("physical slices at the eNB:  ")
	for _, s := range bs.Cell.Slices() {
		fmt.Printf("[id=%d cap=%.0f%%] ", s.ID, s.Capacity*100)
	}
	fmt.Println()

	// SLA enforcement: A cannot grab more than its half.
	err = xA.Deploy(ctrl.SliceConfigJSON{
		Algo: "nvs",
		Slices: []ctrl.SliceParamJSON{
			{ID: 0, Kind: "capacity", Capacity: 0.9},
			{ID: 1, Kind: "capacity", Capacity: 0.9},
		},
	})
	fmt.Printf("A tries to overbook its virtual network: %v\n", err)
}
