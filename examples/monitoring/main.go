// Monitoring: a multi-cell deployment with a disaggregated base station.
// Two monolithic eNBs and one CU/DU split station connect to one
// controller; the RAN database merges the CU and DU agents into a single
// RAN entity and fires a completion event, and the monitoring iApp
// collects statistics from everyone (§4.2.2).
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/telemetry"
)

func main() {
	srv := server.New(server.Config{Scheme: e2ap.SchemeFB})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 10, Decode: true})
	srv.OnRANComplete(func(e server.RANEntity) {
		fmt.Printf("RAN entity complete: node %d with %d part(s)\n", e.NodeID, len(e.Parts))
	})

	// Two monolithic eNBs.
	var enbs []*station.Station
	for id := uint64(1); id <= 2; id++ {
		bs, err := station.New(station.Spec{
			Cell:       ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25},
			Agent:      agent.Config{NodeID: station.Node(e2ap.NodeENB, id), Scheme: e2ap.SchemeFB},
			SM:         sm.SchemeFB,
			SMs:        []uint16{sm.IDMACStats, sm.IDRLCStats, sm.IDPDCPStats},
			Controller: addr,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer bs.Close()
		enbs = append(enbs, bs)
	}

	// One disaggregated station: CU and DU run separate agents over the
	// same cell, each exposing only its own layers (§4.1.1).
	cell, err := ran.NewCell(ran.PHYConfig{RAT: ran.RAT5G, NumRB: 106})
	if err != nil {
		log.Fatal(err)
	}
	cu, du := ran.Split(3, cell)
	cuAgent := agent.New(agent.Config{
		NodeID: station.Node(e2ap.NodeCU, cu.BSID),
		Scheme: e2ap.SchemeFB,
	})
	cuFns := []agent.RANFunction{sm.NewPDCPStats(cell, sm.SchemeFB, cuAgent)}
	duAgent := agent.New(agent.Config{
		NodeID: station.Node(e2ap.NodeDU, du.BSID),
		Scheme: e2ap.SchemeFB,
	})
	duFns := []agent.RANFunction{
		sm.NewMACStats(cell, sm.SchemeFB, duAgent),
		sm.NewRLCStats(cell, sm.SchemeFB, duAgent),
	}
	for _, fn := range cuFns {
		if err := cuAgent.RegisterFunction(fn); err != nil {
			log.Fatal(err)
		}
	}
	for _, fn := range duFns {
		if err := duAgent.RegisterFunction(fn); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := cuAgent.Connect(addr); err != nil {
		log.Fatal(err)
	}
	if _, err := duAgent.Connect(addr); err != nil {
		log.Fatal(err)
	}
	defer cuAgent.Close()
	defer duAgent.Close()
	cuduFns := append(cuFns, duFns...)

	// Attach a saturated UE to every cell and run.
	cells := []*ran.Cell{enbs[0].Cell, enbs[1].Cell, cell}
	for i, c := range cells {
		rnti := uint16(i + 1)
		if _, err := c.Attach(rnti, "", "208.95", 20+2*i); err != nil {
			log.Fatal(err)
		}
		if err := c.AddTraffic(rnti, &ran.Saturating{
			Flow:           ran.FiveTuple{DstIP: uint32(rnti), DstPort: 5001, Proto: ran.ProtoUDP},
			RateBytesPerMS: 1 << 20,
		}); err != nil {
			log.Fatal(err)
		}
	}
	for t := 0; t < 2000; t++ {
		for _, bs := range enbs {
			bs.Step(1)
		}
		cell.Step(1)
		sm.TickAll(cuduFns, cell.Now())
	}
	time.Sleep(50 * time.Millisecond)

	fmt.Println("\nRAN database:")
	for _, e := range srv.RANDB().Entities() {
		fmt.Printf("  node %d: parts=%d complete=%v\n", e.NodeID, len(e.Parts), e.Complete)
	}
	fmt.Println("\nlatest MAC reports:")
	for _, info := range srv.Agents() {
		rep := mon.MAC(info.ID)
		if rep == nil {
			fmt.Printf("  agent %-14s -\n", info.NodeID)
			continue
		}
		fmt.Printf("  agent %-14s t=%dms", info.NodeID, rep.CellTimeMS)
		for _, ue := range rep.UEs {
			fmt.Printf("  UE%d %.1fMbps", ue.RNTI, ue.ThroughputBps/1e6)
		}
		fmt.Println()
	}
	inds, bytes := mon.Counters()
	fmt.Printf("\n%d indications, %d bytes total\n", inds, bytes)

	// The same run, as the telemetry layer saw it: transport frame
	// counts, codec latency histograms, per-subscription indication
	// rates (docs/OBSERVABILITY.md explains every row).
	fmt.Println("\n--- telemetry ---")
	telemetry.Dump(os.Stdout)
}
