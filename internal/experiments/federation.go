package experiments

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/federation"
	"flexric/internal/ran"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/tsdb"
)

// FederationDemo is the federation subsystem's acceptance experiment
// (`make federation-demo`): a root controller federates shard
// controllers that split a fleet of base stations by consistent
// hashing. The demo drives monitored traffic through every shard,
// takes a federated windowed-aggregate baseline, kills the shard owning
// agent 1, and requires that (a) every orphaned agent re-homes to its
// ring successor, (b) the root's cross-shard subscription streams
// resume, and (c) the same federated query over the pre-kill window
// still returns the baseline aggregate — the successor restored the
// dead shard's tsdb snapshot.

// FederationOptions parameterizes one federation run.
type FederationOptions struct {
	E2Scheme e2ap.Scheme
	SMScheme sm.Scheme
	// Shards is the controller-plane size (default 3).
	Shards int
	// Agents is the fleet size, node IDs 1..Agents (default 12).
	Agents int
	// Timeout bounds each phase (default 30s).
	Timeout time.Duration
}

// FederationResult reports the failover evidence.
type FederationResult struct {
	Scheme        string
	Shards        int
	Agents        int
	Victim        string // killed shard
	Orphans       int    // agents the victim owned
	Failovers     int    // root failover count (must be 1)
	IndsBefore    uint64 // root-side indications before the kill
	IndsAfter     uint64 // root-side indications after recovery
	BaselineCount int    // federated aggregate count over the fixed window
	PostKillCount int    // same query after failover (must match)
	MeanRelErr    float64
	P95Buckets    int // p95 drift across failover, in histogram buckets
}

// String renders the result as a table.
func (r *FederationResult) String() string {
	return Table(
		[]string{"scheme", "shards", "agents", "victim", "orphans", "failovers", "inds before", "inds after", "window count", "post-kill count", "mean relerr", "p95 buckets"},
		[][]string{{
			r.Scheme,
			fmt.Sprint(r.Shards),
			fmt.Sprint(r.Agents),
			r.Victim,
			fmt.Sprint(r.Orphans),
			fmt.Sprint(r.Failovers),
			fmt.Sprint(r.IndsBefore),
			fmt.Sprint(r.IndsAfter),
			fmt.Sprint(r.BaselineCount),
			fmt.Sprint(r.PostKillCount),
			fmt.Sprintf("%.2e", r.MeanRelErr),
			fmt.Sprint(r.P95Buckets),
		}},
	)
}

// fedRes is the fast-failover resilience of the shards and the fleet.
func fedRes() *resilience.Config {
	return &resilience.Config{
		KeepaliveInterval: raceTimeScale * 20 * time.Millisecond,
		DeadAfter:         raceTimeScale * 100 * time.Millisecond,
		RetainFor:         raceTimeScale * 150 * time.Millisecond,
		Backoff:           resilience.BackoffPolicy{Base: 10 * time.Millisecond, Max: raceTimeScale * 50 * time.Millisecond},
	}
}

// FederationDemo runs the kill-one-shard acceptance scenario.
func FederationDemo(opts FederationOptions) (*FederationResult, error) {
	if opts.Shards == 0 {
		opts.Shards = 3
	}
	if opts.Agents == 0 {
		opts.Agents = 12
	}
	if opts.Timeout == 0 {
		opts.Timeout = 30 * time.Second
	}
	snapDir, err := os.MkdirTemp("", "fed-demo-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)

	members := make([]string, opts.Shards)
	for i := range members {
		members[i] = fmt.Sprintf("s%d", i)
	}
	ring := federation.NewRing(federation.DefaultReplicas, members...)

	shards := make(map[string]*federation.Shard, opts.Shards)
	defer func() {
		for _, sh := range shards {
			sh.Close()
		}
	}()
	for i, name := range members {
		sh, err := federation.NewShard(federation.ShardConfig{
			Name: name, Index: i,
			E2Scheme: opts.E2Scheme, SMScheme: opts.SMScheme,
			SouthAddr: "127.0.0.1:0", ObsAddr: "127.0.0.1:0",
			SnapshotDir: snapDir,
			Resilience:  fedRes(),
			PeriodMS:    5,
		})
		if err != nil {
			return nil, err
		}
		shards[name] = sh
	}
	root, err := federation.NewRoot(federation.RootConfig{
		Ring: ring, E2Scheme: opts.E2Scheme,
		ListenAddr: "127.0.0.1:0",
		Resilience: fedRes(), CoordPeriodMS: 20,
	})
	if err != nil {
		return nil, err
	}
	defer root.Close()
	for _, sh := range shards {
		if err := sh.ConnectRoot(root.Addr()); err != nil {
			return nil, err
		}
	}

	addrs := make(map[string]string, opts.Shards)
	for name, sh := range shards {
		addrs[name] = sh.SouthAddr()
	}
	// The fleet: each base station carries a saturated UE before its
	// agent dials the ring owner, and is re-homed by its Placer after a
	// shard death.
	var fleet []*station.Station
	defer func() {
		for _, b := range fleet {
			b.Close()
		}
	}()
	for id := uint64(1); id <= uint64(opts.Agents); id++ {
		pl := federation.NewPlacer(ring, addrs, id)
		b, err := station.New(station.Spec{
			Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: opts.SMScheme,
			Agent: agent.Config{
				NodeID: station.Node(e2ap.NodeENB, id), Scheme: opts.E2Scheme,
				Resilience: fedRes(), Rehome: pl.Rehome,
			},
			SMs: []uint16{sm.IDMACStats},
		})
		if err != nil {
			return nil, err
		}
		fleet = append(fleet, b)
		if _, err := b.Cell.Attach(1, "", "208.95", 24); err != nil {
			return nil, err
		}
		if err := Saturate(b.Cell, 1); err != nil {
			return nil, err
		}
		home, err := pl.Home()
		if err != nil {
			return nil, err
		}
		if _, err := b.Agent.Connect(home); err != nil {
			return nil, err
		}
	}

	// drive steps every cell (real time paces the resilience layer
	// underneath) until cond holds.
	var stepMu sync.Mutex
	drive := func(what string, cond func() bool) error {
		deadline := time.Now().Add(opts.Timeout)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("federation: timeout waiting for %s", what)
			}
			stepMu.Lock()
			for i := 0; i < 5; i++ {
				for _, b := range fleet {
					b.Step(1)
				}
			}
			stepMu.Unlock()
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	// Phase 1: the fleet registers, each agent at its ring owner.
	if err := drive("fleet registered at ring owners", func() bool {
		for id := uint64(1); id <= uint64(opts.Agents); id++ {
			name, serving := root.ShardOwning(id)
			if !serving || name != ring.Owner(id) {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}

	// Phase 2: cross-shard routing — one root subscription per agent,
	// counted per agent so stream resume is assertable per orphan.
	counts := make([]atomic.Uint64, opts.Agents+1)
	for id := uint64(1); id <= uint64(opts.Agents); id++ {
		key := id
		if _, err := root.Subscribe(key, sm.IDMACStats,
			sm.EncodeTrigger(opts.SMScheme, sm.Trigger{PeriodMS: 5}),
			[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
			server.SubscriptionCallbacks{OnIndication: func(ev server.IndicationEvent) {
				counts[key].Add(1)
			}}); err != nil {
			return nil, err
		}
	}
	total := func() uint64 {
		var n uint64
		for i := range counts {
			n += counts[i].Load()
		}
		return n
	}
	if err := drive("root indications from every agent", func() bool {
		for id := 1; id <= opts.Agents; id++ {
			if counts[id].Load() == 0 {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}

	res := &FederationResult{
		Scheme: string(opts.E2Scheme),
		Shards: opts.Shards,
		Agents: opts.Agents,
	}

	// Phase 3: federated query baseline over a fixed absolute window.
	if err := drive("ingested history", func() bool {
		var series int
		for _, sh := range shards {
			series += sh.DB().NumSeries()
		}
		return series >= opts.Agents
	}); err != nil {
		return nil, err
	}
	to := time.Now().UnixNano()
	base, ok, err := root.FederatedAggregate("all", "mac", "all", "throughput_bps", 0, to)
	if err != nil || !ok {
		return nil, fmt.Errorf("federation: baseline aggregate: ok=%v err=%v", ok, err)
	}
	res.BaselineCount = base.Count
	res.IndsBefore = total()

	// Phase 4: kill the shard owning agent 1.
	victim := ring.Owner(1)
	res.Victim = victim
	var orphans []uint64
	for id := uint64(1); id <= uint64(opts.Agents); id++ {
		if ring.Owner(id) == victim {
			orphans = append(orphans, id)
		}
	}
	res.Orphans = len(orphans)
	preKill := make(map[uint64]uint64, len(orphans))
	for _, id := range orphans {
		preKill[id] = counts[id].Load()
	}
	if err := shards[victim].Close(); err != nil {
		return nil, fmt.Errorf("federation: close victim: %w", err)
	}
	delete(shards, victim)

	// Phase 5: every orphan re-homes to its ring successor among the
	// survivors, and its root stream resumes.
	live := func(m string) bool { return m != victim }
	if err := drive("orphans re-homed to ring successors", func() bool {
		for _, id := range orphans {
			name, serving := root.ShardOwning(id)
			if !serving || name != ring.OwnerLive(id, live) {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}
	if err := drive("orphan streams resumed", func() bool {
		for _, id := range orphans {
			if counts[id].Load() <= preKill[id] {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}
	res.IndsAfter = total()

	// Phase 6: the pre-kill window is intact — the successor restored
	// the victim's snapshot, so the identical federated query returns
	// the baseline aggregate with one shard fewer.
	post, ok, err := root.FederatedAggregate("all", "mac", "all", "throughput_bps", 0, to)
	if err != nil || !ok {
		return nil, fmt.Errorf("federation: post-kill aggregate: ok=%v err=%v", ok, err)
	}
	res.PostKillCount = post.Count
	if post.Count != base.Count || post.Min != base.Min || post.Max != base.Max {
		return nil, fmt.Errorf("federation: failover changed the window: base %+v post %+v", base, post)
	}
	res.MeanRelErr = relErr(post.Mean, base.Mean)
	if res.MeanRelErr > 1e-9 {
		return nil, fmt.Errorf("federation: mean drifted %.3e across failover", res.MeanRelErr)
	}
	res.P95Buckets = p95BucketDistance(post.P95, base.P95)
	if res.P95Buckets > 1 {
		return nil, fmt.Errorf("federation: p95 moved %d buckets across failover (%v vs %v)",
			res.P95Buckets, post.P95, base.P95)
	}
	snap, _ := root.Snapshot().(federation.FedSnapshot)
	res.Failovers = snap.Failovers
	if res.Failovers != 1 {
		return nil, fmt.Errorf("federation: %d failovers, want 1", res.Failovers)
	}
	return res, nil
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// p95BucketDistance measures how many log-scale histogram buckets
// (tsdb's gamma) separate two p95 estimates.
func p95BucketDistance(a, b float64) int {
	if a <= 0 || b <= 0 {
		if a == b {
			return 0
		}
		return 1 << 20
	}
	d := int(math.Round(math.Log(a)/math.Log(tsdb.HistGamma))) -
		int(math.Round(math.Log(b)/math.Log(tsdb.HistGamma)))
	if d < 0 {
		d = -d
	}
	return d
}
