// Traffic control: the §6.1.1 bufferbloat experiment end to end. A VoIP
// flow shares a bearer with a TCP-Cubic bulk transfer. The TC xApp
// watches sojourn times through the controller's message broker and,
// when latency degrades, applies the paper's three-action remedy:
// second FIFO queue, 5-tuple filter, 5G-BDP pacer.
//
//	go run ./examples/trafficcontrol
package main

import (
	"fmt"
	"log"
	"time"

	"flexric/internal/agent"
	"flexric/internal/broker"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/xapp"
)

func main() {
	// Message broker (the Redis role of Table 3).
	brk, brkAddr, err := broker.NewServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer brk.Close()

	// Controller: server library + RLC monitor + TC specialization
	// (stats→broker iApps, TC SM manager with REST). The monitor's
	// 10 ms period is the rate of the RLC feed the xApp watches.
	srv := server.New(server.Config{Scheme: e2ap.SchemeFB})
	e2Addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 10, Layers: ctrl.MonRLC})
	tcc, err := ctrl.NewTCController(mon, brkAddr, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer tcc.Close()

	// Base station with RLC stats + TC SM.
	bs, err := station.New(station.Spec{
		Cell:       ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25, Band: 7},
		Agent:      agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: e2ap.SchemeFB},
		SM:         sm.SchemeFB,
		SMs:        []uint16{sm.IDRLCStats, sm.IDTrafficCtrl},
		Controller: e2Addr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer bs.Close()

	// UE with a VoIP flow (G.711: 172 B / 20 ms) and, 5 s in, a greedy
	// Cubic transfer sharing the same bearer.
	if _, err := bs.Cell.Attach(1, "", "208.95", 28); err != nil {
		log.Fatal(err)
	}
	voip := &ran.CBR{
		Flow:          ran.FiveTuple{DstIP: 1, DstPort: 5060, Proto: ran.ProtoUDP},
		Size:          172,
		IntervalMS:    20,
		ReturnDelayMS: 10,
	}
	if err := bs.Cell.AddTraffic(1, voip); err != nil {
		log.Fatal(err)
	}
	if err := bs.Cell.AddTraffic(1, &ran.CubicFlow{
		Flow:    ran.FiveTuple{DstIP: 1, DstPort: 5001, Proto: ran.ProtoTCP},
		StartMS: 5000,
	}); err != nil {
		log.Fatal(err)
	}

	// The TC xApp: broker subscriber + REST remedy.
	x, err := xapp.NewTCXApp("http://"+tcc.Addr(), brkAddr, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	x.FilterDstPort = 5060
	x.FilterProto = uint8(ran.ProtoUDP)
	go func() {
		if err := x.Run(); err != nil {
			log.Printf("xapp: %v", err)
		}
	}()
	defer x.Close()

	// Slot loop: 30 simulated seconds; report sojourn + VoIP RTT once a
	// (simulated) second.
	fmt.Println("t(s)  RLC sojourn(ms)  TC backlog(B)  remedy")
	for t := 1; t <= 30000; t++ {
		bs.Step(1)
		if t%10 == 0 {
			time.Sleep(100 * time.Microsecond) // let the broker/xApp path run
		}
		if t%1000 == 0 {
			var sojourn int64
			var backlog int
			_ = bs.Cell.WithUE(1, func(u *ran.UE) error {
				sojourn = u.RLC().OldestSojournMS(bs.Cell.Now())
				for _, q := range u.TC().Stats().Queues {
					backlog += q.BufferBytes
				}
				return nil
			})
			mark := ""
			if x.Applied() {
				mark = "applied"
			}
			fmt.Printf("%4d  %15d  %13d  %s\n", t/1000, sojourn, backlog, mark)
		}
	}
	rtts := voip.RTTs()
	var worst int64
	for _, r := range rtts {
		if r > worst {
			worst = r
		}
	}
	fmt.Printf("VoIP: %d samples, worst RTT %d ms, remedy applied: %v\n",
		len(rtts), worst, x.Applied())
}
