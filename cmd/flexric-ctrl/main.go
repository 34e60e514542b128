// flexric-ctrl is a standalone FlexRIC controller: the server library
// with a monitoring iApp and, optionally, the slicing and traffic
// control specializations with their REST northbounds. It is also the
// artifact measured in the Table 2 comparison.
//
//	flexric-ctrl -e2 :36421 -scheme fb -slicing :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"flexric/internal/a1"
	"flexric/internal/broker"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/faultinject"
	"flexric/internal/federation"
	"flexric/internal/obs"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/snapfile"
	"flexric/internal/trace"
	"flexric/internal/tsdb"
	"flexric/internal/xapp"
)

// The command line. checkFlags rejects the combinations that one of
// the three roles (standalone, -root, -shard-of) would ignore.
var (
	e2Addr            = flag.String("e2", "127.0.0.1:36421", "E2 (south-bound) listen address")
	scheme            = flag.String("scheme", "asn", "E2AP encoding scheme: asn or fb")
	slicing           = flag.String("slicing", "", "REST address for the slicing specialization (empty = off)")
	tc                = flag.String("tc", "", "REST address for the traffic-control specialization (empty = off)")
	brokerAddr        = flag.String("broker", "", "message broker to publish stats to (empty = start one)")
	period            = flag.Uint("period", 100, "monitoring period in ms; also sets the freshness of -slicing's /stats and the rate of -tc's RLC broker feed (use ~10 with -tc: the TC xApp judges a 200 ms sojourn window)")
	ingestWorkers     = flag.Int("ingest-workers", 0, "monitor ingest pipeline goroutines, hashed by (agent, function); 0 = decode inline on receive loops")
	telemetryDump     = flag.Bool("telemetry", false, "dump the telemetry snapshot on exit")
	telemetryEvery    = flag.Duration("telemetry-every", 0, "also dump telemetry periodically (0 = off)")
	obsAddr           = flag.String("obs", "", "observability HTTP address serving the control-room dashboard, /metrics, /snapshot.json, /traces, /stream/ws and pprof (empty = off)")
	traceSample       = flag.Uint("trace-sample", 0, "record every Nth E2 control-loop trace (0 = off, 1 = all)")
	resOn             = flag.Bool("resilience", true, "keepalives, dead-peer detection, and subscription retention/replay across agent reconnects")
	keepalive         = flag.Duration("keepalive", 0, "idle period before a keepalive frame (0 = default 1s; needs -resilience)")
	retain            = flag.Duration("retain", 0, "how long to retain a disconnected agent's subscriptions for replay (0 = default 30s)")
	dialTimeout       = flag.Duration("dial-timeout", 0, "E2 setup handshake timeout per accepted connection (0 = default 5s)")
	faultPlan         = flag.String("faultplan", "", "scripted listener fault plan, e.g. 'blackout@1=2' (see internal/faultinject)")
	tsdbCap           = flag.Int("tsdb", 1024, "samples retained per report series in the time-series store (<= 0 = the store's default, 1024)")
	tsdbAge           = flag.Duration("tsdb-age", 0, "also drop samples older than this from each series (0 = count-only retention)")
	tsdbCompress      = flag.Bool("tsdb-compress", false, "seal full series rings into compressed chunks with downsampling tiers instead of overwriting old samples")
	tsdbSnapshot      = flag.String("tsdb-snapshot", "", "time-series snapshot file: loaded at startup, written on shutdown (empty = off)")
	tsdbSnapshotEvery = flag.Duration("tsdb-snapshot-every", 0, "also write the snapshot periodically (0 = shutdown-only; needs -tsdb-snapshot)")
	a1On              = flag.Bool("a1", false, "A1 policy plane: /a1/* northbound on the obs server plus the SLA enforcement loop, an in-process iApp that applies remedies through the slicing controller and, with -tc, the TC controller (needs -obs and -slicing)")
	slaTick           = flag.Uint("sla-tick", 500, "SLA enforcement tick period in ms (needs -a1)")
	a1Snapshot        = flag.String("a1-snapshot", "", "A1 policy-store snapshot file: loaded at startup, written on shutdown (needs -a1)")
	a1SnapshotEvery   = flag.Duration("a1-snapshot-every", 0, "also write the A1 snapshot periodically (0 = shutdown-only; needs -a1-snapshot)")
	federate          = flag.String("federate", "", "comma-separated shard names forming the federation ring, e.g. 's0,s1,s2' (needs -root or -shard-of)")
	rootMode          = flag.Bool("root", false, "run as the federation root: -e2 accepts shard northbound connections, -obs serves /federation.json and the federated /tsdb/query")
	shardOf           = flag.String("shard-of", "", "run as a federation shard under the root at this E2 address; -e2 is the shard's southbound, -obs its own tsdb routes (the root's query legs arrive over E2)")
	shardName         = flag.String("shard-name", "", "this shard's ring member name (needs -shard-of; must appear in -federate)")
	fedSnapshots      = flag.String("fed-snapshots", "", "shared directory of per-shard tsdb snapshots enabling failover state transfer (shard mode; -tsdb-snapshot-every adds periodic writes)")
)

func main() {
	flag.Parse()
	if err := checkFlags(flag.CommandLine); err != nil {
		log.Fatal(err)
	}

	if *traceSample > 0 {
		trace.SetSampleEvery(uint32(*traceSample))
	}
	store := tsdb.New(tsdb.Config{Capacity: *tsdbCap, MaxAge: *tsdbAge, Compress: *tsdbCompress})
	var snapStop chan struct{}
	var snapDone <-chan struct{}
	if *tsdbSnapshot != "" {
		if err := snapfile.Load(store, *tsdbSnapshot); err != nil {
			log.Fatalf("tsdb snapshot load: %v", err)
		}
		if n := store.NumSeries(); n > 0 {
			log.Printf("tsdb: restored %d series from %s", n, *tsdbSnapshot)
		}
		snapStop = make(chan struct{})
		snapDone = snapfile.Every(store, *tsdbSnapshot, *tsdbSnapshotEvery, snapStop, func(err error) {
			log.Printf("tsdb snapshot write: %v", err)
		})
	}
	e2s := e2ap.SchemeASN
	sms := sm.SchemeASN
	if *scheme == "fb" {
		e2s = e2ap.SchemeFB
		sms = sm.SchemeFB
	}

	var resCfg *resilience.Config
	if *resOn {
		resCfg = &resilience.Config{KeepaliveInterval: *keepalive, RetainFor: *retain}
	}

	// The federation modes are dedicated processes: a root terminates
	// shard northbounds only, a shard is a full controller core for its
	// ring slice. Neither mixes with the standalone specializations.
	if *rootMode || *shardOf != "" {
		members := splitMembers(*federate)
		if len(members) == 0 {
			log.Fatal("federation modes need -federate with the ring member list, e.g. -federate s0,s1,s2")
		}
		if *rootMode {
			runFederationRoot(members, *e2Addr, *obsAddr, e2s, resCfg, uint32(*period))
		} else {
			runFederationShard(members, *shardName, *shardOf, *e2Addr, *obsAddr,
				*fedSnapshots, *tsdbSnapshotEvery, e2s, sms, resCfg, uint32(*period))
		}
		return
	}

	plan, err := faultinject.Parse(*faultPlan)
	if err != nil {
		log.Fatal(err)
	}
	scfg := server.Config{Scheme: e2s, Resilience: resCfg, DialTimeout: *dialTimeout}
	if plan != nil {
		scfg.WrapListener = plan.WrapListener
	}
	srv := server.New(scfg)
	addr, err := srv.Start(*e2Addr)
	if err != nil {
		log.Fatal(err)
	}
	var mon *ctrl.Monitor
	defer func() {
		// Pipeline shutdown order: the server stops delivering
		// indications first, then the monitor drains its ingest workers.
		srv.Close()
		if mon != nil {
			mon.Close()
		}
	}()
	log.Printf("E2 listening on %s (scheme %s)", addr, *scheme)

	mon = ctrl.NewMonitor(srv, ctrl.MonitorConfig{
		Scheme: sms, PeriodMS: uint32(*period), Decode: true, TSDB: store,
		IngestWorkers: *ingestWorkers,
	})
	srv.OnAgentConnect(func(info server.AgentInfo) {
		log.Printf("agent connected: %s (%d RAN functions)", info.NodeID, len(info.Functions))
	})
	srv.OnAgentDisconnect(func(info server.AgentInfo) {
		log.Printf("agent disconnected: %s", info.NodeID)
	})
	srv.OnAgentReconnect(func(info server.AgentInfo) {
		log.Printf("agent reconnected: %s (subscriptions replayed)", info.NodeID)
	})
	srv.OnRANComplete(func(e server.RANEntity) {
		log.Printf("RAN entity complete: %s/%d (%d parts)", e.PLMN, e.NodeID, len(e.Parts))
	})

	var sc *ctrl.SlicingController
	if *slicing != "" {
		sc, err = ctrl.NewSlicingController(srv, sms, *slicing, ctrl.WithMonitor(mon))
		if err != nil {
			log.Fatal(err)
		}
		defer sc.Close()
		log.Printf("slicing REST on http://%s", sc.Addr())
	}
	var tcc *ctrl.TCController
	if *tc != "" {
		ba := *brokerAddr
		if ba == "" {
			b, bAddr, err := broker.NewServer("127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			defer b.Close()
			ba = bAddr
			log.Printf("message broker on %s", ba)
		}
		tcc, err = ctrl.NewTCController(mon, ba, *tc)
		if err != nil {
			log.Fatal(err)
		}
		defer tcc.Close()
		log.Printf("traffic-control REST on http://%s", tcc.Addr())
	}

	var polStore *a1.Store
	var a1SnapStop chan struct{}
	var a1SnapDone <-chan struct{}
	if *a1On {
		polStore = a1.NewStore()
		if *a1Snapshot != "" {
			if err := snapfile.Load(polStore, *a1Snapshot); err != nil {
				log.Fatalf("a1 snapshot load: %v", err)
			}
			if n := polStore.Len(); n > 0 {
				log.Printf("a1: restored %d policies from %s", n, *a1Snapshot)
			}
			a1SnapStop = make(chan struct{})
			a1SnapDone = snapfile.Every(polStore, *a1Snapshot, *a1SnapshotEvery, a1SnapStop, func(err error) {
				log.Printf("a1 snapshot write: %v", err)
			})
		}
	}

	// The observability server mounts last so the control room's
	// topology feed can see every component built above.
	var o *obs.Server
	if *obsAddr != "" {
		topoOpts := []ctrl.TopologyOption{ctrl.TopoWithMonitor(mon)}
		if sc != nil {
			topoOpts = append(topoOpts, ctrl.TopoWithSlicing(sc))
		}
		if polStore != nil {
			topoOpts = append(topoOpts, ctrl.TopoWithA1(polStore))
		}
		topo := ctrl.NewTopology(srv, topoOpts...)
		oo := []obs.Option{
			obs.WithStream(0),
			obs.WithTopology(func() any { return topo.Snapshot() }),
			obs.WithTSDB(store),
		}
		if polStore != nil {
			oo = append(oo, obs.WithA1(polStore))
		}
		o, err = obs.NewServer(*obsAddr, oo...)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("control room on http://%s (dashboard at /, stream at /stream/ws)", o.Addr())
	}

	if polStore != nil {
		slaCfg := xapp.SLAConfig{
			Policies: polStore,
			TSDB:     store,
			Slicing:  sc,
			TickMS:   int(*slaTick),
		}
		if tcc != nil {
			slaCfg.TC = tcc
		}
		slax := xapp.NewSLAXApp(slaCfg)
		go slax.Run()
		defer slax.Close()
		log.Printf("A1 policy plane on http://%s/a1/ (SLA tick %dms)", o.Addr(), slaCfg.TickMS)
	}

	// Periodic status line.
	go func() {
		for range time.Tick(5 * time.Second) {
			inds, bytes := mon.Counters()
			log.Printf("status: %d agents, %d indications, %d bytes",
				len(srv.Agents()), inds, bytes)
		}
	}()

	dumper := obs.NewDumper(os.Stdout, *telemetryEvery, *telemetryDump)

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
	if snapStop != nil {
		// Final snapshot on SIGINT/SIGTERM so a restarted controller
		// resumes with its history.
		close(snapStop)
		<-snapDone
		log.Printf("tsdb: snapshot written to %s", *tsdbSnapshot)
	}
	if a1SnapStop != nil {
		close(a1SnapStop)
		<-a1SnapDone
		log.Printf("a1: snapshot written to %s", *a1Snapshot)
	}
	dumper.Stop()
}

// flagRule rejects a command line that sets flag while none of needs
// is on, or while excl is on. A flag is on when its value is not its
// type's zero: -ingest-workers 0 and -resilience=false are off.
type flagRule struct {
	flag  string
	needs []string
	excl  string
}

// standaloneFlags configure the standalone controller; neither
// federation role reads them.
var standaloneFlags = []string{"slicing", "tc", "broker", "a1", "sla-tick", "a1-snapshot", "a1-snapshot-every",
	"tsdb", "tsdb-age", "tsdb-compress", "tsdb-snapshot", "ingest-workers", "faultplan", "dial-timeout"}

var flagRules = []flagRule{
	{flag: "root", excl: "shard-of"},
	{flag: "tsdb-snapshot-every", excl: "root"},
	{flag: "shard-name", needs: []string{"shard-of"}},
	{flag: "fed-snapshots", needs: []string{"shard-of"}},
	{flag: "federate", needs: []string{"root", "shard-of"}},
	{flag: "tsdb-snapshot-every", needs: []string{"tsdb-snapshot", "fed-snapshots"}},
	{flag: "a1-snapshot", needs: []string{"a1"}},
	{flag: "a1-snapshot-every", needs: []string{"a1-snapshot"}},
	{flag: "sla-tick", needs: []string{"a1"}},
	// The A1 loop serves /a1/* on -obs and remedies through -slicing.
	{flag: "a1", needs: []string{"obs"}},
	{flag: "a1", needs: []string{"slicing"}},
	{flag: "broker", needs: []string{"tc"}},
	{flag: "keepalive", needs: []string{"resilience"}},
	{flag: "retain", needs: []string{"resilience"}},
}

// checkFlags returns an error naming both flags of the first
// combination on the parsed command line fs that flexric-ctrl would
// otherwise ignore.
func checkFlags(fs *flag.FlagSet) error {
	on := func(name string) bool {
		switch v := fs.Lookup(name).Value.(flag.Getter).Get().(type) {
		case bool:
			return v
		case string:
			return v != ""
		case int:
			return v > 0
		case uint:
			return v > 0
		case time.Duration:
			return v > 0
		}
		return false
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	rules := make([]flagRule, 0, 2*len(standaloneFlags)+len(flagRules))
	for _, f := range standaloneFlags {
		rules = append(rules, flagRule{flag: f, excl: "root"}, flagRule{flag: f, excl: "shard-of"})
	}
	for _, r := range append(rules, flagRules...) {
		switch {
		case !set[r.flag]:
		case r.excl != "" && on(r.excl):
			return fmt.Errorf("-%s does not combine with -%s", r.flag, r.excl)
		case r.needs != nil && !slices.ContainsFunc(r.needs, on):
			return fmt.Errorf("-%s needs -%s", r.flag, strings.Join(r.needs, " or -"))
		}
	}
	return nil
}

// splitMembers parses the -federate ring member list.
func splitMembers(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// runFederationRoot runs the process as the federation root until
// SIGINT/SIGTERM: shard northbounds terminate at -e2, and -obs serves
// /federation.json, the control-room topology with its federation tier,
// and the federated /tsdb/query fan-out.
func runFederationRoot(members []string, e2Addr, obsAddr string, e2s e2ap.Scheme, resCfg *resilience.Config, period uint32) {
	ring := federation.NewRing(federation.DefaultReplicas, members...)
	root, err := federation.NewRoot(federation.RootConfig{
		Ring: ring, E2Scheme: e2s, ListenAddr: e2Addr,
		Resilience: resCfg, CoordPeriodMS: period,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer root.Close()
	log.Printf("federation root on %s (ring: %s)", root.Addr(), strings.Join(members, ","))

	if obsAddr != "" {
		topo := ctrl.NewTopology(root.Server(), ctrl.TopoWithFederation(root.Snapshot))
		o, err := obs.NewServer(obsAddr,
			obs.WithStream(0),
			obs.WithTopology(func() any { return topo.Snapshot() }),
			obs.WithFederation(root.Snapshot),
			obs.WithFederatedQuery(root.QueryHandler()),
		)
		if err != nil {
			log.Fatal(err)
		}
		defer o.Close()
		log.Printf("federation control room on http://%s (/federation.json, federated /tsdb/query)", o.Addr())
	}

	dumper := obs.NewDumper(os.Stdout, *telemetryEvery, *telemetryDump)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	dumper.Stop()
}

// runFederationShard runs the process as one federation shard until
// SIGINT/SIGTERM: a full controller core (-e2 southbound, -obs serving
// the shard's own tsdb routes) plus the northbound agent toward the
// root, which also carries the root's query legs.
func runFederationShard(members []string, name, rootAddr, e2Addr, obsAddr, snapDir string,
	snapEvery time.Duration, e2s e2ap.Scheme, sms sm.Scheme, resCfg *resilience.Config, period uint32) {
	idx := -1
	for i, m := range members {
		if m == name {
			idx = i
		}
	}
	if idx < 0 {
		log.Fatalf("-shard-name %q is not in the -federate ring %v", name, members)
	}
	sh, err := federation.NewShard(federation.ShardConfig{
		Name: name, Index: idx,
		E2Scheme: e2s, SMScheme: sms,
		SouthAddr: e2Addr, ObsAddr: obsAddr,
		SnapshotDir: snapDir, SnapshotEvery: snapEvery,
		Resilience: resCfg, PeriodMS: period,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sh.ConnectRoot(rootAddr); err != nil {
		sh.Close()
		log.Fatal(err)
	}
	obsURL := "off"
	if a := sh.ObsAddr(); a != "" {
		obsURL = "http://" + a
	}
	log.Printf("federation shard %s: south on %s, obs %s, root at %s",
		name, sh.SouthAddr(), obsURL, rootAddr)

	dumper := obs.NewDumper(os.Stdout, *telemetryEvery, *telemetryDump)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	// Dump while the shard's agents and root leg are still attached:
	// their per-connection rows leave the registry on Close.
	dumper.Stop()
	if err := sh.Close(); err != nil {
		log.Printf("shard close: %v", err)
	}
}
