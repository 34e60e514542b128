// flexric-agent runs a simulated base station with a FlexRIC agent: the
// full SM bundle (MAC/RLC/PDCP stats, slicing control, traffic control,
// RRC notifications, HW ping) over a slot-driven user plane. It pairs
// with flexric-ctrl for a two-process deployment.
//
//	flexric-agent -controller 127.0.0.1:36421 -rat 5g -rb 106 -ues 3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/faultinject"
	"flexric/internal/obs"
	"flexric/internal/ran"
	"flexric/internal/resilience"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/trace"
	"flexric/internal/tsdb"
)

// smIDs is the full SM bundle, in registration order.
var smIDs = []uint16{
	sm.IDMACStats, sm.IDRLCStats, sm.IDPDCPStats, sm.IDSliceCtrl,
	sm.IDTrafficCtrl, sm.IDRRC, sm.IDKPM, sm.IDHelloWorld,
}

func main() {
	controller := flag.String("controller", "127.0.0.1:36421", "controller E2 address")
	scheme := flag.String("scheme", "asn", "E2AP/SM encoding scheme: asn or fb")
	rat := flag.String("rat", "4g", "radio access technology: 4g or 5g")
	numRB := flag.Int("rb", 25, "bandwidth in resource blocks")
	nodeID := flag.Uint64("node", 1, "global E2 node id")
	ues := flag.Int("ues", 3, "attached UEs with saturating traffic")
	mcs := flag.Int("mcs", 28, "modulation and coding scheme")
	realtime := flag.Bool("realtime", true, "pace the slot loop at 1 TTI per ms")
	telemetryEvery := flag.Duration("telemetry-every", 0, "dump the telemetry snapshot periodically (0 = off)")
	telemetryDump := flag.Bool("telemetry", false, "dump the telemetry snapshot on exit")
	obsAddr := flag.String("obs", "", "observability HTTP address serving the control-room dashboard, /metrics, /snapshot.json, /traces, /stream/ws and pprof (empty = off)")
	traceSample := flag.Uint("trace-sample", 0, "record every Nth E2 control-loop trace (0 = off, 1 = all)")
	resOn := flag.Bool("resilience", true, "keepalives, dead-peer detection, and automatic reconnect with backoff")
	keepalive := flag.Duration("keepalive", 0, "idle period before a keepalive frame (0 = default 1s; needs -resilience)")
	reconnectMax := flag.Int("reconnect-max", 0, "consecutive failed reconnects before giving up (0 = retry forever)")
	dialTimeout := flag.Duration("dial-timeout", 0, "connection establishment timeout (0 = default 5s)")
	faultPlan := flag.String("faultplan", "", "scripted transport fault plan, e.g. 'seed=7,drop@500' (see internal/faultinject)")
	tsdbCap := flag.Int("tsdb", 0, "samples retained per series in a local self-monitoring store served at -obs /tsdb (0 = off)")
	tsdbAge := flag.Duration("tsdb-age", 0, "also drop samples older than this from each series (0 = count-only retention)")
	tsdbSample := flag.Duration("tsdb-sample", 100*time.Millisecond, "self-monitoring sample period (needs -tsdb)")
	flag.Parse()

	if *traceSample > 0 {
		trace.SetSampleEvery(uint32(*traceSample))
	}

	e2s, sms := e2ap.SchemeASN, sm.SchemeASN
	if *scheme == "fb" {
		e2s, sms = e2ap.SchemeFB, sm.SchemeFB
	}
	r := ran.RAT4G
	if *rat == "5g" {
		r = ran.RAT5G
	}

	var resCfg *resilience.Config
	if *resOn {
		resCfg = &resilience.Config{KeepaliveInterval: *keepalive, MaxAttempts: *reconnectMax}
	}
	plan, err := faultinject.Parse(*faultPlan)
	if err != nil {
		log.Fatal(err)
	}
	acfg := agent.Config{
		NodeID:      station.Node(e2ap.NodeENB, *nodeID),
		Scheme:      e2s,
		Resilience:  resCfg,
		DialTimeout: *dialTimeout,
	}
	if plan != nil {
		acfg.WrapConn = plan.WrapConn
	}
	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: r, NumRB: *numRB}, Agent: acfg,
		SM: sms, SMs: smIDs, Controller: *controller,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer bs.Close()
	log.Printf("connected to %s as node %d (%s, %d RB, scheme %s)",
		*controller, *nodeID, r, *numRB, *scheme)

	var store *tsdb.Store
	if *tsdbCap > 0 {
		store = tsdb.New(tsdb.Config{Capacity: *tsdbCap, MaxAge: *tsdbAge})
	}
	var o *obs.Server
	if *obsAddr != "" {
		oo := []obs.Option{obs.WithStream(0)}
		if store != nil {
			oo = append(oo, obs.WithTSDB(store))
		}
		o, err = obs.NewServer(*obsAddr, oo...)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("control room on http://%s (dashboard at /, stream at /stream/ws)", o.Addr())
	}
	dumper := obs.NewDumper(os.Stdout, *telemetryEvery, *telemetryDump)

	for i := 1; i <= *ues; i++ {
		rnti := uint16(i)
		if _, err := bs.Cell.Attach(rnti, "", "208.95", *mcs); err != nil {
			log.Fatal(err)
		}
		if err := bs.Cell.AddTraffic(rnti, &ran.Saturating{
			Flow:           ran.FiveTuple{DstIP: uint32(rnti), DstPort: 5001, Proto: ran.ProtoUDP},
			RateBytesPerMS: 1 << 20,
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Slot loop in its own goroutine so the main goroutine can block on
	// signals and shut down cleanly (stopping the dumper with a final
	// flush instead of abandoning it).
	stop := make(chan struct{})
	if store != nil {
		// Self-monitoring: sample each UE's live MAC/RLC state into the
		// local store so the agent's own /tsdb endpoints answer windowed
		// queries without a controller in the loop.
		go func() {
			tick := time.NewTicker(*tsdbSample)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				now := time.Now().UnixNano()
				for i := 1; i <= *ues; i++ {
					rnti := uint16(i)
					_ = bs.Cell.WithUE(rnti, func(u *ran.UE) error {
						ms := u.MACStats()
						k := tsdb.SeriesKey{Agent: uint32(*nodeID), Fn: sm.IDMACStats, UE: rnti}
						k.Field = tsdb.FieldCQI
						store.Append(k, now, float64(ms.CQI))
						k.Field = tsdb.FieldMCS
						store.Append(k, now, float64(ms.MCS))
						k.Field = tsdb.FieldRBsUsed
						store.Append(k, now, float64(ms.RBsUsed))
						k.Field = tsdb.FieldTxBits
						store.Append(k, now, float64(ms.TxBits))
						k.Field = tsdb.FieldThroughputBps
						store.Append(k, now, ms.ThroughputBps)
						k.Fn = sm.IDRLCStats
						k.Field = tsdb.FieldBufferBytes
						store.Append(k, now, float64(u.RLC().Backlog()))
						k.Field = tsdb.FieldSojournMS
						store.Append(k, now, float64(u.RLC().OldestSojournMS(bs.Cell.Now())))
						return nil
					})
				}
			}
		}()
	}
	go func() {
		var tick <-chan time.Time
		if *realtime {
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			tick = t.C
		}
		for {
			if tick != nil {
				select {
				case <-tick:
				case <-stop:
					return
				}
			} else {
				select {
				case <-stop:
					return
				default:
				}
			}
			bs.Step(1)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if o != nil {
		// Graceful: stream clients get a going-away close frame and
		// in-flight HTTP requests drain, bounded by the timeout.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := o.Shutdown(ctx); err != nil {
			log.Printf("obs shutdown: %v", err)
		}
		cancel()
	}
	close(stop)
	dumper.Stop()
}
