package federation

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/resilience"
	"flexric/internal/server"
	"flexric/internal/transport"
	"flexric/internal/tsdb"
)

// RootConfig parameterizes the federation root.
type RootConfig struct {
	// Ring is the shared placement contract (same members and replica
	// count every shard and agent placer uses).
	Ring      *Ring
	E2Scheme  e2ap.Scheme
	Transport transport.Kind
	// ListenAddr is where shard northbound agents connect (":0" ok).
	ListenAddr string
	// Resilience drives failover detection: a shard is declared dead
	// when its association drops and stays down past RetainFor. Keep
	// RetainFor short here — it is the failover latency floor.
	Resilience *resilience.Config
	// CoordPeriodMS is the shard report period (default 100).
	CoordPeriodMS uint32
	// HTTPTimeout bounds each shard fan-out request (default 5s).
	HTTPTimeout time.Duration
}

// Root presents the whole shard fleet as one RIC: shards connect as
// agents (the recursive idiom one level up), cross-shard subscriptions
// are routed to the owner shard with RequestIDs remapped by the E2
// machinery, federated queries fan out to shard obs servers and merge
// mergeable partials, and a dead shard triggers takeover orders to the
// ring successors of its agents.
type Root struct {
	cfg    RootConfig
	srv    *server.Server
	addr   string
	client *http.Client

	mu        sync.Mutex
	shards    map[string]*shardState
	byAgentID map[server.AgentID]string
	fedSubs   map[FedSubID]*fedSub
	nextSub   FedSubID
	failovers int
}

type shardState struct {
	name    string
	e2, obs string
	agentID server.AgentID
	alive   bool
	agents  map[uint64]bool
	lastNS  int64
}

// FedSubID identifies a federated subscription at the root.
type FedSubID int

type fedSub struct {
	key     uint64
	fnID    uint16
	trigger []byte
	actions []e2ap.Action
	cb      server.SubscriptionCallbacks
	shard   string
	sub     server.SubID
}

// NewRoot starts the root controller.
func NewRoot(cfg RootConfig) (*Root, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("federation: root needs a ring")
	}
	if cfg.CoordPeriodMS == 0 {
		cfg.CoordPeriodMS = 100
	}
	if cfg.HTTPTimeout == 0 {
		cfg.HTTPTimeout = 5 * time.Second
	}
	r := &Root{
		cfg:       cfg,
		client:    &http.Client{Timeout: cfg.HTTPTimeout},
		shards:    make(map[string]*shardState),
		byAgentID: make(map[server.AgentID]string),
		fedSubs:   make(map[FedSubID]*fedSub),
	}
	r.srv = server.New(server.Config{
		Scheme:     cfg.E2Scheme,
		Transport:  cfg.Transport,
		Resilience: cfg.Resilience,
	})
	r.srv.OnAgentConnect(func(info server.AgentInfo) { r.onShardConnect(info) })
	r.srv.OnAgentDisconnect(func(info server.AgentInfo) { r.onShardGone(info) })
	addr, err := r.srv.Start(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	r.addr = addr
	return r, nil
}

// Addr returns the address shard northbound agents connect to.
func (r *Root) Addr() string { return r.addr }

// Server exposes the root's E2 server — the one the shards' northbound
// agents attach to — so a host process can hang a control-room
// Topology off it.
func (r *Root) Server() *server.Server { return r.srv }

// Close tears the root down.
func (r *Root) Close() error { return r.srv.Close() }

// onShardConnect subscribes to the coordination function of every
// connecting shard; the periodic reports build the registry.
func (r *Root) onShardConnect(info server.AgentInfo) {
	if !info.HasFunction(IDFedCoord) {
		return
	}
	_, _ = r.srv.Subscribe(info.ID, IDFedCoord,
		EncodeCoordTrigger(CoordTrigger{PeriodMS: r.cfg.CoordPeriodMS}),
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
		server.SubscriptionCallbacks{
			OnIndication: func(ev server.IndicationEvent) {
				rep, err := DecodeReport(ev.Env.IndicationPayload())
				if err != nil {
					return
				}
				r.applyReport(ev.Agent, rep)
			},
		})
}

func (r *Root) applyReport(id server.AgentID, rep *Report) {
	r.mu.Lock()
	st := r.shards[rep.Name]
	if st == nil {
		st = &shardState{name: rep.Name}
		r.shards[rep.Name] = st
	}
	st.e2, st.obs = rep.E2, rep.Obs
	st.agentID = id
	st.alive = true
	st.lastNS = rep.TS
	st.agents = make(map[uint64]bool, len(rep.Agents))
	for _, k := range rep.Agents {
		st.agents[k] = true
	}
	r.byAgentID[id] = rep.Name
	r.mu.Unlock()
}

// onShardGone fires at retention expiry — the resilience layer already
// waited RetainFor for the shard to come back, so this is the death
// verdict and the failover trigger.
func (r *Root) onShardGone(info server.AgentInfo) {
	r.mu.Lock()
	name, ok := r.byAgentID[info.ID]
	delete(r.byAgentID, info.ID)
	r.mu.Unlock()
	if ok {
		r.failover(name)
	}
}

// liveOwnerLocked returns the first live shard in key's preference
// order. Caller holds r.mu.
func (r *Root) liveOwnerLocked(key uint64) string {
	return r.cfg.Ring.OwnerLive(key, func(m string) bool {
		st := r.shards[m]
		return st != nil && st.alive
	})
}

// failover re-homes a dead shard's responsibilities: takeover orders
// (snapshot restore) go to each orphaned agent's ring successor, and
// every federated subscription leg on the dead shard is re-placed
// there — the successor parks the leg until the agent itself re-homes,
// then the stream resumes.
func (r *Root) failover(name string) {
	r.mu.Lock()
	st := r.shards[name]
	if st == nil || !st.alive {
		r.mu.Unlock()
		return
	}
	st.alive = false
	r.failovers++
	// Group the orphans by their ring successor among live shards.
	takeovers := make(map[string][]uint64)
	for key := range st.agents {
		if succ := r.liveOwnerLocked(key); succ != "" {
			takeovers[succ] = append(takeovers[succ], key)
		}
	}
	type order struct {
		agentID server.AgentID
		payload []byte
	}
	var orders []order
	for succ, keys := range takeovers {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		orders = append(orders, order{
			agentID: r.shards[succ].agentID,
			payload: EncodeTakeover(&Takeover{From: name, Agents: keys}),
		})
	}
	var orphanLegs []*fedSub
	for _, fs := range r.fedSubs {
		if fs.shard == name {
			orphanLegs = append(orphanLegs, fs)
		}
	}
	r.mu.Unlock()

	for _, o := range orders {
		ch := make(chan error, 1)
		if err := r.srv.Control(o.agentID, IDFedCoord, nil, o.payload, true,
			func(_ []byte, err error) { ch <- err }); err == nil {
			<-ch
		}
	}
	for _, fs := range orphanLegs {
		_ = r.replaceLeg(fs)
	}
}

// replaceLeg re-places one federated subscription on the current live
// owner of its key.
func (r *Root) replaceLeg(fs *fedSub) error {
	r.mu.Lock()
	owner := r.liveOwnerLocked(fs.key)
	if owner == "" {
		r.mu.Unlock()
		return fmt.Errorf("federation: no live shard for agent %d", fs.key)
	}
	agentID := r.shards[owner].agentID
	r.mu.Unlock()
	sub, err := r.srv.Subscribe(agentID, fs.fnID, WrapTrigger(fs.key, fs.trigger), fs.actions, fs.cb)
	if err != nil {
		return err
	}
	r.mu.Lock()
	fs.shard, fs.sub = owner, sub
	r.mu.Unlock()
	return nil
}

// Subscribe routes a fleet-level subscription to the shard owning the
// agent key: exactly one shard carries each leg, with the trigger
// wrapped so the shard can resolve the local target. The callbacks see
// byte-identical indications to a direct subscription.
func (r *Root) Subscribe(key uint64, fnID uint16, trigger []byte, actions []e2ap.Action, cb server.SubscriptionCallbacks) (FedSubID, error) {
	fs := &fedSub{
		key:     key,
		fnID:    fnID,
		trigger: append([]byte(nil), trigger...),
		actions: actions,
		cb:      cb,
	}
	if err := r.replaceLeg(fs); err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.nextSub++
	id := r.nextSub
	r.fedSubs[id] = fs
	r.mu.Unlock()
	return id, nil
}

// Unsubscribe removes a federated subscription.
func (r *Root) Unsubscribe(id FedSubID) error {
	r.mu.Lock()
	fs, ok := r.fedSubs[id]
	delete(r.fedSubs, id)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("federation: unknown subscription %d", id)
	}
	return r.srv.Unsubscribe(fs.sub, fs.fnID)
}

// NumSubscriptions returns the live federated subscription count.
func (r *Root) NumSubscriptions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fedSubs)
}

// --- federated query fan-out ---

// partialEnvelope mirrors the shard obs server's /tsdb/partial
// response.
type partialEnvelope struct {
	Series  int                  `json:"series"`
	Agg     tsdb.PartialAgg      `json:"agg"`
	Buckets []tsdb.PartialBucket `json:"buckets,omitempty"`
}

// liveObsAddrs snapshots the obs base URLs of live shards.
func (r *Root) liveObsAddrs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, st := range r.shards {
		if st.alive && st.obs != "" {
			out = append(out, st.obs)
		}
	}
	sort.Strings(out)
	return out
}

// readLeg decodes one shard's /tsdb/partial answer and checks it before
// the merge trusts it: a series count that is not negative, exactly the
// bucket grid the root asked for (none for an aggregate), and partials
// that pass tsdb validation — so a corrupt or hostile leg can neither
// panic the merge nor grow a histogram past the finite bucket range.
func readLeg(r io.Reader, grid []tsdb.PartialBucket) (partialEnvelope, error) {
	var env partialEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return env, fmt.Errorf("federation: shard answer: %w", err)
	}
	if env.Series < 0 || len(env.Buckets) != len(grid) {
		return env, fmt.Errorf("federation: shard answer: %d series, %d buckets for %d asked", env.Series, len(env.Buckets), len(grid))
	}
	if err := env.Agg.Validate(); err != nil {
		return env, fmt.Errorf("federation: shard answer: %w", err)
	}
	for i := range env.Buckets {
		b := &env.Buckets[i]
		if b.FromTS != grid[i].FromTS || b.ToTS != grid[i].ToTS {
			return env, fmt.Errorf("federation: shard answer: bucket %d is [%d, %d), asked [%d, %d)", i, b.FromTS, b.ToTS, grid[i].FromTS, grid[i].ToTS)
		}
		if err := b.Agg.Validate(); err != nil {
			return env, fmt.Errorf("federation: shard answer: bucket %d: %w", i, err)
		}
	}
	return env, nil
}

// merge folds a checked leg into m.
func (m *partialEnvelope) merge(leg *partialEnvelope) {
	m.Series += leg.Series
	m.Agg.Merge(&leg.Agg)
	m.Buckets = tsdb.MergePartialWindows(m.Buckets, leg.Buckets)
}

// fanOutPartial queries every live shard's /tsdb/partial for the
// matching series over [from, to] — or, with stepNS > 0, its step
// windows over [from, to) — and merges the answers into the root's own
// bucket grid. shardsHit counts shards that answered with a valid leg,
// series the matched series across them.
func (r *Root) fanOutPartial(agent, fn, ue, field string, from, to, stepNS int64) (merged partialEnvelope, shardsHit int, err error) {
	addrs := r.liveObsAddrs()
	if len(addrs) == 0 {
		return merged, 0, fmt.Errorf("federation: no live shards")
	}
	// Shards take the step in whole milliseconds; the grid must match.
	stepMS := stepNS / int64(time.Millisecond)
	merged.Buckets = tsdb.NewPartialWindow(from, to, stepMS*int64(time.Millisecond))
	query := partialParams(agent, fn, ue, field, from, to, stepMS).Encode()
	type result struct {
		env partialEnvelope
		err error
	}
	results := make([]result, len(addrs))
	var wg sync.WaitGroup
	for i, base := range addrs {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			resp, err := r.client.Get(base + "/tsdb/partial?" + query)
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("federation: shard query: %s", resp.Status)
				return
			}
			results[i].env, results[i].err = readLeg(resp.Body, merged.Buckets)
		}(i, base)
	}
	wg.Wait()
	for i := range results {
		if results[i].err != nil {
			// A shard dying mid-query is expected during failover, and a
			// leg that fails its checks is dropped the same way; the merge
			// proceeds over the shards that answered.
			continue
		}
		shardsHit++
		merged.merge(&results[i].env)
	}
	if shardsHit == 0 {
		return merged, 0, fmt.Errorf("federation: every shard query failed")
	}
	return merged, shardsHit, nil
}

func partialParams(agent, fn, ue, field string, from, to, stepMS int64) url.Values {
	v := url.Values{}
	v.Set("agent", agent)
	v.Set("fn", fn)
	v.Set("ue", ue)
	v.Set("field", field)
	v.Set("from", strconv.FormatInt(from, 10))
	v.Set("to", strconv.FormatInt(to, 10))
	if stepMS > 0 {
		v.Set("step_ms", strconv.FormatInt(stepMS, 10))
	}
	return v
}

// FederatedAggregate merges the [from, to] aggregate of every matching
// series across live shards. agent and ue accept "all" or a number; fn
// a number or mac/rlc/pdcp alias.
func (r *Root) FederatedAggregate(agent, fn, ue, field string, from, to int64) (tsdb.Agg, bool, error) {
	env, _, err := r.fanOutPartial(agent, fn, ue, field, from, to, 0)
	if err != nil {
		return tsdb.Agg{}, false, err
	}
	agg, ok := env.Agg.Finish()
	return agg, ok, nil
}

// FederatedWindow is the windowed form: aligned shard windows merged
// bucket-by-bucket.
func (r *Root) FederatedWindow(agent, fn, ue, field string, from, to, stepNS int64) ([]tsdb.Bucket, error) {
	env, _, err := r.fanOutPartial(agent, fn, ue, field, from, to, stepNS)
	if err != nil {
		return nil, err
	}
	out := make([]tsdb.Bucket, len(env.Buckets))
	for i := range env.Buckets {
		out[i] = tsdb.Bucket{FromTS: env.Buckets[i].FromTS, ToTS: env.Buckets[i].ToTS}
		if agg, ok := env.Buckets[i].Agg.Finish(); ok {
			out[i].Agg = agg
		}
	}
	return out, nil
}

// fedQueryResponse is the federated /tsdb/query envelope. It mirrors
// the single-store response's result fields and adds fan-out metadata.
type fedQueryResponse struct {
	Field   string        `json:"field"`
	Shards  int           `json:"shards"`
	Series  int           `json:"series"`
	Agg     *tsdb.Agg     `json:"agg,omitempty"`
	Buckets []tsdb.Bucket `json:"buckets,omitempty"`
}

// QueryHandler serves the /tsdb/query contract over the federation:
// aggregate and window modes fan out to every live shard and merge
// (agent/ue additionally accept "all"); last=K proxies to the shard
// owning the agent. Mount on an obs server with
// obs.WithFederatedQuery.
func (r *Root) QueryHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		agent, fn, ue := q.Get("agent"), q.Get("fn"), q.Get("ue")
		field := q.Get("field")
		if agent == "" || fn == "" || ue == "" || field == "" {
			http.Error(w, "need agent, fn, ue, field", http.StatusBadRequest)
			return
		}
		stepNS := int64(0)
		if v := q.Get("step_ms"); v != "" {
			var ok bool
			if stepNS, ok = tsdb.ParseMS(v); !ok {
				http.Error(w, "bad step_ms parameter", http.StatusBadRequest)
				return
			}
		}
		var from, to int64
		switch {
		case q.Get("last") != "":
			r.proxyLast(w, req, agent)
			return
		case q.Get("window_ms") != "":
			windowNS, ok := tsdb.ParseMS(q.Get("window_ms"))
			if !ok {
				http.Error(w, "bad window_ms parameter", http.StatusBadRequest)
				return
			}
			to = time.Now().UnixNano()
			from = to - windowNS
		case q.Get("from") != "" && q.Get("to") != "":
			var err1, err2 error
			from, err1 = strconv.ParseInt(q.Get("from"), 10, 64)
			to, err2 = strconv.ParseInt(q.Get("to"), 10, 64)
			if err1 != nil || err2 != nil || to <= from {
				http.Error(w, "bad from/to parameters", http.StatusBadRequest)
				return
			}
		default:
			http.Error(w, "need last, window_ms, or from/to", http.StatusBadRequest)
			return
		}
		env, hit, err := r.fanOutPartial(agent, fn, ue, field, from, to, stepNS)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp := fedQueryResponse{Field: field, Shards: hit, Series: env.Series}
		if stepNS > 0 {
			resp.Buckets = make([]tsdb.Bucket, len(env.Buckets))
			for i := range env.Buckets {
				resp.Buckets[i] = tsdb.Bucket{FromTS: env.Buckets[i].FromTS, ToTS: env.Buckets[i].ToTS}
				if agg, ok := env.Buckets[i].Agg.Finish(); ok {
					resp.Buckets[i].Agg = agg
				}
			}
		} else {
			agg, ok := env.Agg.Finish()
			if !ok {
				http.Error(w, "no samples in range", http.StatusNotFound)
				return
			}
			resp.Agg = &agg
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}
}

// proxyLast forwards a last=K query to the shard owning the agent (the
// raw-sample mode has no cross-shard merge: one shard holds the series).
func (r *Root) proxyLast(w http.ResponseWriter, req *http.Request, agent string) {
	key, err := strconv.ParseUint(agent, 10, 64)
	if err != nil {
		http.Error(w, "last=K needs a numeric agent", http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	owner := r.liveOwnerLocked(key)
	var base string
	if owner != "" {
		base = r.shards[owner].obs
	}
	r.mu.Unlock()
	if base == "" {
		http.Error(w, "no live shard for agent", http.StatusBadGateway)
		return
	}
	resp, err := r.client.Get(base + "/tsdb/query?" + req.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}

// --- federation snapshot (for /federation.json and the topology tier) ---

// ShardSummary is one shard's row in the federation snapshot.
type ShardSummary struct {
	Name         string   `json:"name"`
	E2           string   `json:"e2"`
	Obs          string   `json:"obs"`
	Alive        bool     `json:"alive"`
	Agents       int      `json:"agents"`
	AgentIDs     []uint64 `json:"agent_ids"`
	LastReportNS int64    `json:"last_report_ns"`
}

// FedSnapshot is the root's /federation.json payload.
type FedSnapshot struct {
	TS        int64          `json:"ts"`
	Members   []string       `json:"members"`
	Shards    []ShardSummary `json:"shards"`
	Subs      int            `json:"subs"`
	Failovers int            `json:"failovers"`
}

// Snapshot returns the federation-tier snapshot (pass to
// obs.WithFederation and ctrl.TopoWithFederation).
func (r *Root) Snapshot() any {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := FedSnapshot{
		TS:        time.Now().UnixNano(),
		Members:   r.cfg.Ring.Members(),
		Subs:      len(r.fedSubs),
		Failovers: r.failovers,
	}
	names := make([]string, 0, len(r.shards))
	for name := range r.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := r.shards[name]
		sum := ShardSummary{
			Name: st.name, E2: st.e2, Obs: st.obs, Alive: st.alive,
			Agents: len(st.agents), LastReportNS: st.lastNS,
		}
		for k := range st.agents {
			sum.AgentIDs = append(sum.AgentIDs, k)
		}
		sort.Slice(sum.AgentIDs, func(i, j int) bool { return sum.AgentIDs[i] < sum.AgentIDs[j] })
		snap.Shards = append(snap.Shards, sum)
	}
	return snap
}

// ShardOwning reports which live shard currently owns an agent key and
// whether that shard's last report lists the agent as served.
func (r *Root) ShardOwning(key uint64) (name string, serving bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name = r.liveOwnerLocked(key)
	if st := r.shards[name]; st != nil {
		serving = st.agents[key]
	}
	return name, serving
}
