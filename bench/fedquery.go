package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/federation"
	"flexric/internal/obs"
	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/tsdb"
)

// fed_query: reads beside writes through the federation. A root and
// three shards; six agents, two per shard, report MAC and RLC every 41
// TTIs, stepped open loop at 1 ms/TTI by the stepper goroutine for the
// whole run. Beside it one client issues federated window queries over
// HTTP at the root: first open loop at a fixed rate, then back to back.

// fedSpec sizes fed_query.
type fedSpec struct {
	shards, agents, ues int
	periodTTI           int
	warmRounds          int
	// settle is how long the paced stepper runs before anything is
	// measured, so that every queried window is full of paced history.
	settle time.Duration
	// window and step shape every query; it covers the window that
	// ended one report period before the query was due.
	window, step time.Duration
	// queryWall is the open-loop interval between queries.
	queryWall time.Duration
	// satQueriesPerS × the closed-loop phase's share of -seconds is the
	// fixed number of back-to-back queries.
	satQueriesPerS float64
}

var fedQuery = fedSpec{
	shards: 3, agents: 6, ues: 64, periodTTI: 41, warmRounds: 300,
	settle: 2200 * time.Millisecond, window: 2 * time.Second, step: 200 * time.Millisecond,
	queryWall: 29 * time.Millisecond, satQueriesPerS: 200,
}

var fedLayers = []uint16{sm.IDMACStats, sm.IDRLCStats}

// fedFields are the fields a query may ask for. All hold integers, so
// a sum is exact whatever order shards and series are merged in.
var fedFields = []tsdb.Field{tsdb.FieldCQI, tsdb.FieldMCS, tsdb.FieldTxBits}

type fedRig struct {
	roundLoop
	sp      fedSpec
	ring    *federation.Ring
	shards  map[string]*federation.Shard
	root    *federation.Root
	rootObs *obs.Server
	client  *http.Client
	// owner[i] is the shard serving stations[i].
	owner []*federation.Shard
	// fields[k] is the field of query k.
	fields []tsdb.Field
	asked  []fedAnswer
}

// fedAnswer is one query and what the root answered, kept for the
// oracle to check once the measured window is over.
type fedAnswer struct {
	field    tsdb.Field
	from, to int64
	resp     fedResponse
}

// fedResponse mirrors the root's /tsdb/query envelope.
type fedResponse struct {
	Field   string        `json:"field"`
	Shards  int           `json:"shards"`
	Series  int           `json:"series"`
	Buckets []tsdb.Bucket `json:"buckets"`
}

func setupFed(e *env, sp fedSpec, maxRounds, maxQueries int) (*fedRig, error) {
	rng := rand.New(rand.NewSource(e.seed))
	r := &fedRig{sp: sp, shards: map[string]*federation.Shard{}, client: &http.Client{Timeout: 10 * time.Second}}
	r.roundLoop = roundLoop{name: "fed_query", period: int64(sp.periodTTI), ttiWall: time.Millisecond, tr: e.tr}
	members := make([]string, sp.shards)
	for i := range members {
		members[i] = fmt.Sprintf("s%d", i)
	}
	r.ring = federation.NewRing(federation.DefaultReplicas, members...)
	for i, name := range members {
		sh, err := federation.NewShard(federation.ShardConfig{
			Name: name, Index: i, E2Scheme: e2ap.SchemeFB, SMScheme: sm.SchemeFB,
			SouthAddr: "127.0.0.1:0", ObsAddr: "127.0.0.1:0", PeriodMS: uint32(sp.periodTTI),
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.shards[name] = sh
	}
	var err error
	r.root, err = federation.NewRoot(federation.RootConfig{Ring: r.ring, E2Scheme: e2ap.SchemeFB, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		r.close()
		return nil, err
	}
	r.rootObs, err = obs.NewServer("127.0.0.1:0",
		obs.WithFederation(r.root.Snapshot), obs.WithFederatedQuery(r.root.QueryHandler()))
	if err != nil {
		r.close()
		return nil, err
	}
	for _, sh := range r.shards {
		if err := sh.ConnectRoot(r.root.Addr()); err != nil {
			r.close()
			return nil, err
		}
	}
	// Node IDs are drawn until the ring has placed the same number of
	// agents on every shard.
	perShard := sp.agents / sp.shards
	placed := map[string]int{}
	ids := drawNodeIDs(rng, sp.agents, func(id uint64) bool {
		o := r.ring.Owner(id)
		if placed[o] == perShard {
			return false
		}
		placed[o]++
		return true
	})
	for _, id := range ids {
		st, err := newStation(rng, id, stationSpec{ues: sp.ues, shards: 1, layers: fedLayers, e2: e2ap.SchemeFB, sm: sm.SchemeFB})
		if err != nil {
			r.close()
			return nil, err
		}
		sh := r.shards[r.ring.Owner(id)]
		if _, err := st.agent.Connect(sh.SouthAddr()); err != nil {
			r.close()
			return nil, err
		}
		r.stations = append(r.stations, st)
		r.owner = append(r.owner, sh)
		for _, fn := range fedLayers {
			r.addSentinel(sh.DB(), uint32(id), fn, st.lastUE)
		}
	}
	// Steady state: every agent subscribed by its shard, and the root
	// holding a report from every shard that lists the agent as served.
	if !waitUntil(10*time.Second, func() bool {
		for _, st := range r.stations {
			if !st.subscribed(1) {
				return false
			}
			if _, serving := r.root.ShardOwning(st.nodeID); !serving {
				return false
			}
		}
		return true
	}) {
		r.close()
		return nil, fmt.Errorf("fed_query: federation did not reach steady state")
	}
	r.fields = make([]tsdb.Field, maxQueries)
	for k := range r.fields {
		r.fields[k] = fedFields[rng.Intn(len(fedFields))]
	}
	r.start(maxRounds)
	if _, err := r.runClosed(sp.warmRounds, 2); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *fedRig) close() {
	r.stop()
	for _, sh := range r.shards {
		sh.Close()
	}
	if r.root != nil {
		r.root.Close()
	}
	if r.rootObs != nil {
		r.rootObs.Close()
	}
	r.client.CloseIdleConnections()
}

// query issues query k for the window that ended one report period
// before due, and checks the answer's shape. The content is checked by
// the oracle after the measured window.
func (r *fedRig) query(k int, due time.Time) error {
	field := r.fields[k]
	to := due.UnixNano() - int64(r.sp.periodTTI)*int64(time.Millisecond)
	from := to - int64(r.sp.window)
	url := fmt.Sprintf("http://%s/tsdb/query?agent=all&ue=all&fn=mac&field=%s&from=%d&to=%d&step_ms=%d",
		r.rootObs.Addr(), field, from, to, r.sp.step.Milliseconds())
	sp := r.tr.begin("http.GET /tsdb/query", int64(k))
	resp, err := r.client.Get(url)
	if err != nil {
		r.tr.end(sp)
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query %d: %s", k, resp.Status)
	}
	a := fedAnswer{field: field, from: from, to: to}
	if err := json.Unmarshal(body, &a.resp); err != nil {
		return fmt.Errorf("query %d: %w", k, err)
	}
	if want := int(r.sp.window / r.sp.step); a.resp.Shards != r.sp.shards || a.resp.Series != r.sp.agents*r.sp.ues || len(a.resp.Buckets) != want {
		return fmt.Errorf("query %d: %d shards, %d series, %d buckets", k, a.resp.Shards, a.resp.Series, len(a.resp.Buckets))
	}
	r.asked = append(r.asked, a)
	return nil
}

// verify recomputes an answer from the shards' own stores: the
// harness's merge of every matching series' PartialWindow over the same
// closed window. Count, min, max and mean must be equal; p50 may differ
// by one histogram bucket.
func (r *fedRig) verify(a *fedAnswer) error {
	var want []tsdb.PartialBucket
	for _, sh := range r.shards {
		for _, info := range sh.DB().List(-1, sm.IDMACStats) {
			if info.Key.Field != a.field {
				continue
			}
			want = tsdb.MergePartialWindows(want, sh.DB().PartialWindow(info.Key, a.from, a.to, int64(r.sp.step)))
		}
	}
	if len(want) != len(a.resp.Buckets) {
		return fmt.Errorf("%d buckets, want %d", len(a.resp.Buckets), len(want))
	}
	for i := range want {
		exp, _ := want[i].Agg.Finish()
		got := a.resp.Buckets[i].Agg
		if exp.Count == 0 {
			return fmt.Errorf("bucket %d of [%d, %d) is empty in the shards' stores", i, a.from, a.to)
		}
		if got.Count != exp.Count || got.Min != exp.Min || got.Max != exp.Max || got.Mean != exp.Mean {
			return fmt.Errorf("bucket %d: root says count %d min %v max %v mean %v, shards hold count %d min %v max %v mean %v",
				i, got.Count, got.Min, got.Max, got.Mean, exp.Count, exp.Min, exp.Max, exp.Mean)
		}
		if d := math.Abs(got.P50 - exp.P50); d > (tsdb.HistGamma-1)*math.Abs(exp.P50) {
			return fmt.Errorf("bucket %d: root says p50 %v, shards hold %v", i, got.P50, exp.P50)
		}
	}
	return nil
}

func runFedQuery(e *env) (*result, error) {
	sp := fedQuery
	if e.smoke {
		sp.ues, sp.warmRounds, sp.satQueriesPerS = 8, 4, 100
		sp.settle, sp.window, sp.step = 350*time.Millisecond, 200*time.Millisecond, 100*time.Millisecond
	}
	pacedFor := time.Duration(e.seconds * pacedShare * float64(time.Second))
	pacedQueries := int(pacedFor / sp.queryWall)
	if pacedQueries < 2 {
		pacedQueries = 2
	}
	satQueries := int(sp.satQueriesPerS * e.seconds * (1 - pacedShare))
	if satQueries < 2 {
		satQueries = 2
	}
	maxQueries := 2*pacedQueries + satQueries
	// The stepper paces for the whole run; leave room for a run that
	// takes several times its nominal length.
	maxRounds := sp.warmRounds + int((sp.settle+time.Duration(8*e.seconds*float64(time.Second)))/time.Millisecond)/sp.periodTTI + 64

	var r *fedRig
	setup, err := timeSetups(e, func() (func(), error) {
		var err error
		r, err = setupFed(e, sp, maxRounds, maxQueries)
		if err != nil {
			return nil, err
		}
		return r.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer r.close()

	res := newResult("fed_query")
	// The stepper goroutine: open loop at 1 ms/TTI until halted.
	var halt atomic.Bool
	var stepped pacedOut
	var stepErr error
	stepDone := make(chan struct{})
	lt := startLayerTrace(e)
	if lt != nil {
		lt.watchRoot(r)
	}
	go func() {
		defer close(stepDone)
		stepped, stepErr = r.runPaced(-1, &halt)
	}()
	time.Sleep(sp.settle)

	next := 0
	runPacedQueries := func(n int) pacedOut {
		return pacedCalls(res, n, sp.queryWall, false, func(due time.Time) error {
			next++
			return r.query(next-1, due)
		})
	}
	if lt != nil {
		lt.enable(runPacedQueries(pacedQueries / 2))
	}
	m := startMeter()
	fromRound := r.issued.Load()
	paced := runPacedQueries(pacedQueries)
	toRound := r.visible.Load()
	lt.endPaced(paced)
	heap := liveHeap()
	t0 := time.Now()
	for i := 0; i < satQueries; i++ {
		err := r.query(next, time.Now())
		next++
		res.check(1, btoi(err != nil), "%v", err)
	}
	satWall := time.Since(t0)
	allocs, allocBytes, gcs := m.stop()
	halt.Store(true)
	<-stepDone
	if stepErr != nil {
		return nil, stepErr
	}

	lat := summarize(paced.lat)
	res.setE2E(setup, lat, paced, float64(satQueries)/satWall.Seconds(), allocs, heap)
	res.info = fmt.Sprintf("paced %d queries in %.2f s (p50 %.3f ms, p%.1f %.3f ms), %d back-to-back queries in %.2f s, %d rounds beside them",
		lat.n, paced.wall.Seconds(), lat.p50, lat.hiPct, lat.hi, satQueries, satWall.Seconds(), r.issued.Load())

	// Oracle. The stepper is at rest on an emitting TTI and every round
	// is visible.
	for i := range r.asked {
		err := r.verify(&r.asked[i])
		res.check(1, btoi(err != nil), "query %d: %v", i, err)
	}
	rounds := uint64(r.issued.Load())
	wantInds := rounds * uint64(sp.agents*len(fedLayers))
	var gotInds, wire uint64
	for _, sh := range r.shards {
		n, b := sh.Monitor().Counters()
		gotInds += n
		wire += b
	}
	res.check(int(wantInds), absDiff(wantInds, gotInds), "indications received %d, want %d", gotInds, wantInds)
	r.checkSentinels(res, r.owner[0].DB().Config().Capacity)
	for i, st := range r.stations {
		// The shard keys series by node ID; the newest tx_bits sample of
		// the last UE must be the cell's own counter.
		k := tsdb.SeriesKey{Agent: uint32(st.nodeID), Fn: sm.IDMACStats, UE: st.lastUE, Field: tsdb.FieldTxBits}
		last := r.owner[i].DB().LastK(k, 1, nil)
		var have uint64
		_ = st.cell.WithUE(st.lastUE, func(u *ran.UE) error { have = u.MACStats().TxBits; return nil })
		res.check(1, btoi(len(last) != 1 || last[0].V != float64(have)), "agent %d UE %d: shard holds tx_bits %v, cell has %d", st.nodeID, st.lastUE, last, have)
	}
	res.counts["queries"] = uint64(len(r.asked))
	res.counts["indications_per_round"] = gotInds / rounds
	res.counts["sm_bytes_per_round"] = wire / rounds

	if lt != nil {
		fresh := summarize(r.latencies(fromRound, toRound))
		stepped.from, stepped.to = fromRound, toRound
		lt.common(res, &r.roundLoop, stepped, lat, r.maxInFlight(fromRound, toRound), allocBytes, gcs)
		lt.fedLayers(res, r, fresh, paced)
	}
	return res, nil
}
