package federation

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/tsdb"
)

func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fastRes is the test resilience profile: sub-second detection and
// retention so failover completes in tens of milliseconds. Scaled up
// under the race detector (see race_test.go) so its slowdown cannot
// flap a healthy connection dead.
func fastRes() *resilience.Config {
	return &resilience.Config{
		KeepaliveInterval: raceTimeScale * 20 * time.Millisecond,
		DeadAfter:         raceTimeScale * 80 * time.Millisecond,
		RetainFor:         raceTimeScale * 120 * time.Millisecond,
		Backoff:           resilience.BackoffPolicy{Base: 10 * time.Millisecond, Max: raceTimeScale * 40 * time.Millisecond},
	}
}

// schemes is one (E2AP, SM) encoding pair.
type schemes struct {
	e2 e2ap.Scheme
	sm sm.Scheme
}

// testRNTI is the one UE every test agent reports.
const testRNTI = 5

// testAgent is a minimal monitored E2 node: one MAC stats function
// emitting one integer-valued UE report per tick, placed on the ring by
// a Placer and re-homed by the same Placer on reconnect.
type testAgent struct {
	a    *agent.Agent
	fn   *sm.StatsFunction
	stop chan struct{}
	wg   sync.WaitGroup
}

func startTestAgent(t *testing.T, nodeID uint64, sc schemes, ring *Ring, addrs map[string]string) *testAgent {
	t.Helper()
	fn := sm.NewStatsFunction(sm.IDMACStats, "test-mac", func(_ agent.ControllerID, now int64, emit func([]byte)) {
		rep := &sm.MACReport{CellTimeMS: now, UEs: []sm.MACUEEntry{{
			RNTI: testRNTI, CQI: 10, ThroughputBps: float64(nodeID*1000 + uint64(now%97)),
		}}}
		emit(sm.EncodeMACReport(sc.sm, rep))
	})
	pl := NewPlacer(ring, addrs, nodeID)
	ta := &testAgent{fn: fn, stop: make(chan struct{})}
	ta.a = agent.New(agent.Config{
		NodeID:     station.Node(e2ap.NodeENB, nodeID),
		Scheme:     sc.e2,
		Resilience: fastRes(),
		Rehome:     pl.Rehome,
	})
	if err := ta.a.RegisterFunction(fn); err != nil {
		t.Fatal(err)
	}
	home, err := pl.Home()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ta.a.Connect(home); err != nil {
		t.Fatal(err)
	}
	ta.wg.Add(1)
	go func() {
		defer ta.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fn.Tick(time.Now().UnixMilli())
			case <-ta.stop:
				return
			}
		}
	}()
	return ta
}

func (ta *testAgent) Close() {
	close(ta.stop)
	ta.wg.Wait()
	ta.a.Close()
}

// TestFederationFailover is the package-level end-to-end and the
// federation acceptance run (`make federation-demo`): 3 shards + 6
// agents behind a root, once per codec pair. It pins (a)
// consistent-hash routing of agents and subscription legs, (b) the
// federated HTTP aggregate equals a direct merge over the shard stores,
// (c) shard kill → takeover + re-home to the ring successor + stream
// resume, and (d) the federated aggregate over the pre-kill window is
// unchanged by the failover.
func TestFederationFailover(t *testing.T) {
	for _, sc := range []schemes{{e2ap.SchemeASN, sm.SchemeASN}, {e2ap.SchemeFB, sm.SchemeFB}} {
		t.Run(string(sc.e2), func(t *testing.T) { federationFailover(t, sc) })
	}
}

func federationFailover(t *testing.T, sc schemes) {
	dir := t.TempDir()
	members := []string{"s0", "s1", "s2"}
	ring := NewRing(64, members...)

	shards := make(map[string]*Shard)
	for i, name := range members {
		sh, err := NewShard(ShardConfig{
			Name: name, Index: i,
			E2Scheme: sc.e2, SMScheme: sc.sm,
			SouthAddr: "127.0.0.1:0", ObsAddr: "127.0.0.1:0",
			SnapshotDir: dir,
			Resilience:  fastRes(),
			PeriodMS:    5,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		shards[name] = sh
	}
	root, err := NewRoot(RootConfig{
		Ring: ring, E2Scheme: sc.e2,
		ListenAddr: "127.0.0.1:0",
		Resilience: fastRes(), CoordPeriodMS: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	for _, sh := range shards {
		if err := sh.ConnectRoot(root.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	addrs := make(map[string]string)
	for name, sh := range shards {
		addrs[name] = sh.SouthAddr()
	}
	const nAgents = 6
	var agents []*testAgent
	for id := uint64(1); id <= nAgents; id++ {
		ta := startTestAgent(t, id, sc, ring, addrs)
		defer ta.Close()
		agents = append(agents, ta)
	}

	// Every agent lands on its ring owner, per the root's registry.
	waitUntil(t, "all agents registered at their owners", 5*time.Second, func() bool {
		for id := uint64(1); id <= nAgents; id++ {
			name, serving := root.ShardOwning(id)
			if !serving || name != ring.Owner(id) {
				return false
			}
		}
		return true
	})

	// Cross-shard subscription routing: one fleet-level leg per agent.
	var mu sync.Mutex
	inds := make(map[uint64]int)
	for id := uint64(1); id <= nAgents; id++ {
		key := id
		_, err := root.Subscribe(key, sm.IDMACStats,
			sm.EncodeTrigger(sc.sm, sm.Trigger{PeriodMS: 5}),
			[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
			server.SubscriptionCallbacks{OnIndication: func(ev server.IndicationEvent) {
				if rep, err := sm.DecodeMACReport(ev.Env.IndicationPayload()); err == nil && len(rep.UEs) == 1 {
					mu.Lock()
					inds[key]++
					mu.Unlock()
				}
			}})
		if err != nil {
			t.Fatalf("subscribe agent %d: %v", key, err)
		}
	}
	indCount := func(key uint64) int {
		mu.Lock()
		defer mu.Unlock()
		return inds[key]
	}
	waitUntil(t, "root indications from every agent", 5*time.Second, func() bool {
		for id := uint64(1); id <= nAgents; id++ {
			if indCount(id) == 0 {
				return false
			}
		}
		return true
	})
	// Let the shards ingest a solid window: every agent's throughput
	// series holds baseSamples samples on its owner shard.
	const baseSamples = 20
	waitUntil(t, "a window of samples from every agent", 5*time.Second, func() bool {
		for id := uint64(1); id <= nAgents; id++ {
			k := tsdb.SeriesKey{Agent: uint32(id), Fn: sm.IDMACStats, UE: testRNTI, Field: tsdb.FieldThroughputBps}
			if len(shards[ring.Owner(id)].DB().LastK(k, baseSamples, nil)) < baseSamples {
				return false
			}
		}
		return true
	})

	// Baseline: federated HTTP aggregate over a fixed absolute window
	// equals a direct partial merge over the shard stores.
	to := time.Now().UnixNano()
	fedAgg, ok, err := root.FederatedAggregate("all", "mac", "all", "throughput_bps", 0, to)
	if err != nil || !ok {
		t.Fatalf("federated aggregate: ok=%v err=%v", ok, err)
	}
	var direct tsdb.PartialAgg
	for _, sh := range shards {
		for _, info := range sh.DB().List(-1, sm.IDMACStats) {
			if info.Key.Field != tsdb.FieldThroughputBps {
				continue
			}
			if p, ok := sh.DB().PartialAggregate(info.Key, 0, to); ok {
				direct.Merge(&p)
			}
		}
	}
	directAgg, _ := direct.Finish()
	if fedAgg.Count != directAgg.Count || fedAgg.Min != directAgg.Min ||
		fedAgg.Max != directAgg.Max || fedAgg.Mean != directAgg.Mean {
		t.Fatalf("HTTP fan-out disagrees with direct merge:\n http   %+v\n direct %+v", fedAgg, directAgg)
	}

	// Kill the shard owning agent 1.
	victim := ring.Owner(1)
	var orphans []uint64
	for id := uint64(1); id <= nAgents; id++ {
		if ring.Owner(id) == victim {
			orphans = append(orphans, id)
		}
	}
	preKill := make(map[uint64]int)
	for _, id := range orphans {
		preKill[id] = indCount(id)
	}
	if err := shards[victim].Close(); err != nil {
		t.Fatalf("close victim: %v", err)
	}

	// Every orphan re-homes to its ring successor among the survivors.
	live := func(m string) bool { return m != victim }
	waitUntil(t, "orphans re-homed to ring successors", 10*time.Second, func() bool {
		for _, id := range orphans {
			name, serving := root.ShardOwning(id)
			if !serving || name != ring.OwnerLive(id, live) {
				return false
			}
		}
		return true
	})
	// The monitoring stream resumes through the replayed legs.
	waitUntil(t, "root indications resume for orphans", 10*time.Second, func() bool {
		for _, id := range orphans {
			if indCount(id) <= preKill[id] {
				return false
			}
		}
		return true
	})

	// The pre-kill window is eventually intact: the successors restore
	// the victim's snapshot, so the same federated query over [0, to]
	// converges to the identical aggregate with one shard fewer. Poll
	// rather than assert once — streams re-home as soon as the orphan
	// agents redial, which can be before the root even declares the
	// victim dead and sends the takeover orders that restore history.
	var fedAgg2 tsdb.Agg
	waitUntil(t, "pre-kill window restored on successors", 10*time.Second, func() bool {
		a, ok, err := root.FederatedAggregate("all", "mac", "all", "throughput_bps", 0, to)
		if err != nil || !ok {
			return false
		}
		fedAgg2 = a
		return a.Count == fedAgg.Count && a.Min == fedAgg.Min &&
			a.Max == fedAgg.Max && a.Mean == fedAgg.Mean
	})
	if d := p95BucketDist(fedAgg2.P95, fedAgg.P95); d > 1 {
		t.Fatalf("p95 moved %d buckets across failover: %v vs %v", d, fedAgg2.P95, fedAgg.P95)
	}

	snap, okSnap := root.Snapshot().(FedSnapshot)
	if !okSnap {
		t.Fatal("snapshot type")
	}
	if snap.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", snap.Failovers)
	}
	alive := 0
	for _, sh := range snap.Shards {
		if sh.Alive {
			alive++
		} else if sh.Name != victim {
			t.Fatalf("unexpected dead shard %s", sh.Name)
		}
	}
	if alive != 2 {
		t.Fatalf("%d shards alive, want 2", alive)
	}
}

func p95BucketDist(a, b float64) int {
	if a <= 0 || b <= 0 {
		if a == b {
			return 0
		}
		return 1 << 20
	}
	d := int(histIdxForTest(a)) - int(histIdxForTest(b))
	if d < 0 {
		d = -d
	}
	return d
}

// histIdxForTest mirrors tsdb's histogram bucketing (gamma 1.08) for
// the cross-failover p95 assertion.
func histIdxForTest(v float64) int {
	g := 1.08
	idx := 0
	for x := 1.0; x*g <= v; x *= g {
		idx++
	}
	return idx
}

// TestWireRoundTrip pins the coordination wire forms.
func TestWireRoundTrip(t *testing.T) {
	key, inner, err := UnwrapTrigger(WrapTrigger(0xdeadbeef, []byte{1, 2, 3}))
	if err != nil || key != 0xdeadbeef || len(inner) != 3 {
		t.Fatalf("trigger round trip: key=%x inner=%v err=%v", key, inner, err)
	}
	if _, _, err := UnwrapTrigger([]byte{1}); err == nil {
		t.Fatal("short trigger accepted")
	}
	rep, err := DecodeReport(EncodeReport(&Report{Name: "s1", E2: "a", Obs: "b", Agents: []uint64{1, 2}}))
	if err != nil || rep.Name != "s1" || len(rep.Agents) != 2 {
		t.Fatalf("report round trip: %+v err=%v", rep, err)
	}
	tk, err := DecodeTakeover(EncodeTakeover(&Takeover{From: "s0", Agents: []uint64{7}}))
	if err != nil || tk.From != "s0" || len(tk.Agents) != 1 {
		t.Fatalf("takeover round trip: %+v err=%v", tk, err)
	}
	trig, err := DecodeCoordTrigger(EncodeCoordTrigger(CoordTrigger{PeriodMS: 50}))
	if err != nil || trig.PeriodMS != 50 {
		t.Fatalf("coord trigger round trip: %+v err=%v", trig, err)
	}
	if fmt.Sprint(SnapshotFile("/tmp/x", "s1")) != "/tmp/x/shard-s1.tsdb" {
		t.Fatal("snapshot file name")
	}
}
