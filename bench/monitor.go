package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"flexric/internal/ctrl"
	"flexric/internal/obs"
	"flexric/internal/obs/ws"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/transport"
	"flexric/internal/tsdb"
)

// The monitoring workloads (mon_live, ingest_bulk, ind_small): agents
// stream per-shard MAC, RLC and PDCP reports into one controller's
// monitor and store. Beside the stepper and the observer of roundLoop,
// a WebSocket reader runs when the spec streams; it only blocks in
// ReadMessage and stamps arrivals.

type monRig struct {
	roundLoop
	sp     monSpec
	store  *tsdb.Store
	srv    *server.Server
	mon    *ctrl.Monitor
	obsSrv *obs.Server
	wsConn *ws.Conn
	wsDone chan struct{}

	// WebSocket client state, written by the reader goroutine.
	wsMu      sync.Mutex
	wsBase    int64 // rounds emitted before the subscription took effect
	wsRounds  int64 // rounds since whose every sentinel sample was read
	wsAt      []int64
	wsSamples int64
	wsPaced   int64     // samples read during the measured paced phase
	wsSizes   []float64 // KB per frame
}

// buildMonRig brings the controller, the agents and the fleet up to the
// point where every subscription is admitted.
func buildMonRig(e *env, sp monSpec, maxRounds int) (*monRig, error) {
	rng := rand.New(rand.NewSource(e.seed))
	r := &monRig{sp: sp, wsAt: make([]int64, maxRounds)}
	r.roundLoop = roundLoop{name: sp.name, period: int64(sp.periodTTI), ttiWall: sp.ttiWall, burst: sp.burst, raw: !sp.decode, tr: e.tr}
	r.store = tsdb.New(sp.tsdb)
	r.srv = server.New(server.Config{Scheme: sp.e2, Transport: transport.KindSCTPish})
	addr, err := r.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.mon = ctrl.NewMonitor(r.srv, ctrl.MonitorConfig{
		Scheme: sp.sm, PeriodMS: uint32(sp.periodTTI), Layers: ctrl.MonAll,
		Decode: sp.decode, TSDB: r.store, IngestWorkers: sp.ingestWorkers,
	})
	if sp.stream {
		r.obsSrv, err = obs.NewServer("127.0.0.1:0", obs.WithTSDB(r.store), obs.WithStream(20))
		if err != nil {
			r.close()
			return nil, err
		}
	}
	for _, id := range drawNodeIDs(rng, sp.agents, nil) {
		st, err := newStation(rng, id, stationSpec{ues: sp.ues, shards: sp.shards, layers: layersAll, e2: sp.e2, sm: sp.sm})
		if err != nil {
			r.close()
			return nil, err
		}
		r.stations = append(r.stations, st)
		if err := st.connect(r.srv, addr); err != nil {
			r.close()
			return nil, err
		}
		for _, fn := range layersAll {
			r.addSentinel(r.store, uint32(st.id), fn, st.lastUE)
		}
	}
	if !waitUntil(5*time.Second, func() bool {
		for _, st := range r.stations {
			if !st.subscribed(1) {
				return false
			}
		}
		return true
	}) {
		r.close()
		return nil, fmt.Errorf("%s: subscriptions not admitted", sp.name)
	}
	r.start(maxRounds)
	return r, nil
}

// subscribeWS attaches the WebSocket client to every tsdb series and
// starts the reader. It returns once the hub has the subscription, so
// every round emitted afterwards is streamed.
func (r *monRig) subscribeWS() error {
	conn, err := ws.Dial("ws://"+r.obsSrv.Addr()+"/stream/ws", 5*time.Second)
	if err != nil {
		return err
	}
	// A round of mon_live is about 0.7 MB of JSON in one frame.
	conn.MaxMessageSize = 32 << 20
	r.wsConn = conn
	r.wsBase = r.issued.Load()
	if err := conn.WriteText([]byte(`{"op":"subscribe","ch":"tsdb","glob":"*","flush_ms":20}`)); err != nil {
		return err
	}
	// Requests are handled in order: the pong proves the subscription
	// is in place.
	if err := conn.WriteText([]byte(`{"op":"ping"}`)); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		_, payload, err := conn.ReadMessage()
		if err != nil {
			return fmt.Errorf("ws subscribe: %w", err)
		}
		if bytes.Contains(payload, []byte(`"pong"`)) {
			break
		}
	}
	_ = conn.SetReadDeadline(time.Time{})
	r.wsDone = make(chan struct{})
	go r.readWS()
	return nil
}

// readWS blocks in ReadMessage, stamps each frame's arrival and counts
// the sentinel samples it carries. It scans the frame's bytes instead
// of decoding the JSON so that the client stays cheap beside the system
// it measures.
func (r *monRig) readWS() {
	defer close(r.wsDone)
	for {
		sp := r.tr.begin("ws.ReadMessage", -1)
		_, payload, err := r.wsConn.ReadMessage()
		r.tr.end(sp)
		if err != nil {
			return
		}
		now := time.Now()
		if !bytes.HasPrefix(payload, []byte(`{"ch":"tsdb"`)) {
			continue
		}
		r.wsMu.Lock()
		r.wsSizes = append(r.wsSizes, float64(len(payload))/1024)
		// Every sample is a two-element array; the frame adds one array
		// for the series list and one per series.
		r.wsSamples += int64(bytes.Count(payload, []byte("[")) - 1 - bytes.Count(payload, []byte(`"samples":`)))
		seen := int64(1 << 62)
		for i := range r.sent {
			s := &r.sent[i]
			if at := bytes.Index(payload, s.needle); at >= 0 {
				rest := payload[at+len(s.needle):]
				if end := bytes.Index(rest, []byte("]]")); end >= 0 {
					s.wsSeen += int64(bytes.Count(rest[:end], []byte("[")))
				}
			}
			if s.wsSeen < seen {
				seen = s.wsSeen
			}
		}
		for ; r.wsRounds < seen; r.wsRounds++ {
			if rd := r.wsBase + r.wsRounds; rd < int64(len(r.wsAt)) {
				r.wsAt[rd] = now.UnixNano()
				r.tr.mark("ws.visible", rd, now)
			}
		}
		r.wsMu.Unlock()
	}
}

// wsVisible is the number of rounds the WebSocket client has seen whole.
func (r *monRig) wsVisible() int64 {
	r.wsMu.Lock()
	defer r.wsMu.Unlock()
	return r.wsBase + r.wsRounds
}

func (r *monRig) wsSampleCount() int64 {
	r.wsMu.Lock()
	defer r.wsMu.Unlock()
	return r.wsSamples
}

// closeWS disconnects the WebSocket client and waits until the hub has
// let go of it.
func (r *monRig) closeWS() error {
	if r.wsConn == nil {
		return nil
	}
	_ = r.wsConn.Close()
	if r.wsDone != nil {
		<-r.wsDone
	}
	r.wsConn = nil
	if !waitUntil(5*time.Second, func() bool { return r.obsSrv.Hub().NumClients() == 0 }) {
		return fmt.Errorf("%s: hub kept the WebSocket client", r.sp.name)
	}
	return nil
}

func (r *monRig) close() {
	_ = r.closeWS()
	r.stop()
	r.srv.Close()
	r.mon.Close()
	if r.obsSrv != nil {
		r.obsSrv.Close()
	}
}

// setupMon builds the rig and runs the fixed warm-up: by its end every
// series exists, and has sealed a chunk where the store compresses.
func setupMon(e *env, sp monSpec, maxRounds int) (*monRig, error) {
	r, err := buildMonRig(e, sp, maxRounds)
	if err != nil {
		return nil, err
	}
	if _, err := r.runClosed(sp.warmRounds, sp.inflight); err != nil {
		r.close()
		return nil, err
	}
	if sp.stream {
		if err := r.subscribeWS(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func runMonitor(e *env, sp monSpec) (*result, error) {
	if e.smoke {
		sp = sp.smoke()
	}
	pacedFor := time.Duration(e.seconds * pacedShare * float64(time.Second))
	// The phase ends on a whole burst and on an emitting TTI.
	grain := sp.periodTTI * sp.burst
	pacedTTIs := int(pacedFor/sp.ttiWall) / grain * grain
	if pacedTTIs < grain {
		pacedTTIs = grain
	}
	satRounds := int(sp.satRoundsPerS * e.seconds * (1 - pacedShare))
	if satRounds < 4 {
		satRounds = 4
	}
	maxRounds := sp.warmRounds + 2*pacedTTIs/sp.periodTTI + satRounds + 8

	var r *monRig
	setup, err := timeSetups(e, func() (func(), error) {
		var err error
		r, err = setupMon(e, sp, maxRounds)
		if err != nil {
			return nil, err
		}
		return r.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer r.close()

	res := newResult(sp.name)
	lt := startLayerTrace(e)
	if lt != nil {
		// Tracing overhead: a stretch of the same paced phase untraced,
		// then the traced one, compared by CPU per paced second.
		base, err := r.runPaced((pacedTTIs/2+grain-1)/grain*grain, nil)
		if err != nil {
			return nil, err
		}
		lt.enable(base)
	}
	m := startMeter()
	ws0 := r.wsSampleCount()
	paced, err := r.runPaced(pacedTTIs, nil)
	if err != nil {
		return nil, err
	}
	wsOK := true
	if sp.stream {
		wsOK = waitUntil(5*time.Second, func() bool { return r.wsVisible() >= paced.to })
		r.wsPaced = r.wsSampleCount() - ws0
		// The subscriber leaves before the saturated phase: the hub drops
		// the oldest deltas once rounds arrive faster than it ticks, and
		// how much it drops differs from run to run.
		if err := r.closeWS(); err != nil {
			return nil, err
		}
	}
	lt.endPaced(paced)
	heap := liveHeap()
	satWall, err := r.runClosed(satRounds, sp.inflight)
	if err != nil {
		return nil, err
	}
	allocs, allocBytes, gcs := m.stop()

	samplesPerRound := float64(sp.agents * sp.ues * samplesPerUE)
	unit := samplesPerRound
	if !sp.decode {
		unit = float64(sp.agents * len(layersAll) * sp.shards)
	}
	lat := summarize(paced.lat)
	res.setE2E(setup, lat, paced, unit*float64(satRounds)/satWall.Seconds(), allocs, heap)
	res.info = fmt.Sprintf("paced %d rounds in %.2f s (p50 %.3f ms, p%.1f %.3f ms), saturated %d rounds in %.2f s",
		lat.n, paced.wall.Seconds(), lat.p50, lat.hiPct, lat.hi, satRounds, satWall.Seconds())

	r.oracle(res, paced, wsOK)
	inds, wire := r.mon.Counters()
	res.counts["rounds"] = uint64(r.issued.Load())
	res.counts["attempted"] = uint64(res.attempted)
	res.counts["indications"] = inds
	res.counts["sm_bytes"] = wire

	if lt != nil {
		lt.common(res, &r.roundLoop, paced, lat, r.maxInFlight(paced.from, paced.to), allocBytes, gcs)
		lt.monLayers(res, r, paced, samplesPerRound)
	}
	return res, nil
}

// oracle checks the run's outputs; every check adds to attempted and
// every miss to failed.
func (r *monRig) oracle(res *result, paced pacedOut, wsOK bool) {
	sp := r.sp
	rounds := r.issued.Load()
	// Every indication of every round arrived.
	wantInds := uint64(rounds) * uint64(sp.agents*len(layersAll)*sp.shards)
	gotInds, _ := r.mon.Counters()
	res.check(int(wantInds), absDiff(wantInds, gotInds), "indications received %d, want %d", gotInds, wantInds)

	capacity := 0
	if !sp.tsdb.Compress {
		capacity = r.store.Config().Capacity
	}
	r.checkSentinels(res, capacity)

	// What the controller holds for each UE equals the cell's own
	// statistics at the reported cell time. The raw archive holds the
	// last shard's report only.
	for _, st := range r.stations {
		var rep *sm.MACReport
		if sp.decode {
			rep = r.mon.MAC(st.id)
		} else if raw := r.mon.Raw(st.id, sm.IDMACStats); raw != nil {
			rep, _ = sm.DecodeMACReport(raw)
		}
		checkMAC(res, st, rep, r.fleet.Now(), sp.decode)
	}

	// Every paced round's sentinels reached the WebSocket client.
	if sp.stream {
		missed := 0
		if !wsOK {
			missed = int(paced.to - r.wsVisible())
		}
		res.check(int(paced.to-paced.from), missed, "WebSocket client saw rounds up to %d, want %d", r.wsVisible(), paced.to)
	}
}

// checkMAC compares a MAC report the controller holds with the cell's
// own per-UE statistics; the stepper must be at rest on the TTI that
// emitted the report.
func checkMAC(res *result, st *station, rep *sm.MACReport, now int64, whole bool) {
	if rep == nil || rep.CellTimeMS != now {
		res.check(1, 1, "agent %d: no MAC report at cell time %d", st.nodeID, now)
		return
	}
	got := make(map[uint16]sm.MACUEEntry, len(rep.UEs))
	for _, u := range rep.UEs {
		got[u.RNTI] = u
	}
	st.cell.WithUEs(func(ues []*ran.UE) {
		for _, u := range ues {
			g, ok := got[u.RNTI]
			if !ok {
				if whole {
					res.check(1, 1, "agent %d: UE %d missing from the MAC report", st.nodeID, u.RNTI)
				}
				continue
			}
			m := u.MACStats()
			same := g.CQI == uint8(m.CQI) && g.MCS == uint8(m.MCS) && g.RBsUsed == m.RBsUsed &&
				g.TxBits == m.TxBits && g.ThroughputBps == m.ThroughputBps
			res.check(1, btoi(!same), "agent %d UE %d: controller holds %+v, cell has %+v", st.nodeID, u.RNTI, g, m)
		}
	})
}
