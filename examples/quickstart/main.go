// Quickstart: the smallest complete FlexRIC deployment — one controller
// (server library + monitoring iApp), one simulated base station with a
// FlexRIC agent exposing the monitoring service models, one UE with
// saturating downlink traffic. Prints the MAC statistics the controller
// receives for two simulated seconds.
//
//	go run ./examples/quickstart
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
)

func main() {
	// 1. Controller: server library + statistics iApp (event-driven, no
	// polling).
	srv := server.New(server.Config{Scheme: e2ap.SchemeFB})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 100, Decode: true})
	fmt.Println("controller listening on", addr)

	// 2. Base station: simulated 5 MHz LTE cell + agent library with the
	// MAC/RLC/PDCP monitoring SMs.
	bs, err := station.New(station.Spec{
		Cell:       ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25, Band: 7},
		Agent:      agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: e2ap.SchemeFB},
		SM:         sm.SchemeFB,
		SMs:        []uint16{sm.IDMACStats, sm.IDRLCStats, sm.IDPDCPStats},
		Controller: addr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer bs.Close()

	// 3. One UE at MCS 28 with a saturating downlink flow.
	if _, err := bs.Cell.Attach(1, "imsi-001010000000001", "208.95", 28); err != nil {
		log.Fatal(err)
	}
	if err := bs.Cell.AddTraffic(1, &ran.Saturating{
		Flow:           ran.FiveTuple{DstIP: 1, DstPort: 5001, Proto: ran.ProtoUDP},
		RateBytesPerMS: 1 << 20,
	}); err != nil {
		log.Fatal(err)
	}

	// 4. Run the slot loop: 2000 TTIs (= 2 s of air time), printing the
	// controller's view twice per simulated second.
	for tti := 1; tti <= 2000; tti++ {
		bs.Step(1)
		if tti%500 == 0 {
			// Give the socket path a moment to deliver.
			time.Sleep(20 * time.Millisecond)
			for _, info := range srv.Agents() {
				rep := mon.MAC(info.ID)
				if rep == nil {
					continue
				}
				fmt.Printf("t=%4dms agent %s:", bs.Cell.Now(), info.NodeID)
				for _, ue := range rep.UEs {
					fmt.Printf(" UE%d thpt=%.1fMbps cqi=%d", ue.RNTI, ue.ThroughputBps/1e6, ue.CQI)
				}
				fmt.Println()
			}
		}
	}
	inds, bytes := mon.Counters()
	fmt.Printf("done: %d indications, %d payload bytes received\n", inds, bytes)
}
