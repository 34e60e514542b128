package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/metrics"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/transport"
)

// station is one simulated base station wired to a controller: the
// cell, its E2 agent and the periodic-report RAN functions the stepper
// ticks after every slot.
type station struct {
	cell   *ran.Cell
	agent  *agent.Agent
	fns    []agent.RANFunction
	nodeID uint64
	// id is the transport-assigned agent ID on the controller the
	// station connected to.
	id server.AgentID
	// lastUE is the UE whose fields a report builder appends last: the
	// final UE of the final non-empty shard. Its series are the
	// sentinels of the station's report streams.
	lastUE uint16
}

// stationSpec sizes one station.
type stationSpec struct {
	ues, shards int
	layers      []uint16 // sm.IDMACStats, ...
	slicing     bool     // also register the slice-control SM
	e2          e2ap.Scheme
	sm          sm.Scheme
}

// newStation builds a cell with seeded traffic and an unconnected agent
// carrying the requested service models. One UE in eight runs a
// saturating flow with a seed-drawn rate; the rest are CBR flows with a
// seed-drawn period and phase. Which UEs saturate is drawn too, so the
// mix differs by seed while the amount of work does not.
func newStation(rng *rand.Rand, nodeID uint64, sp stationSpec) (*station, error) {
	cell, err := ran.NewCellWithOptions(ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25, Band: 7},
		ran.CellOptions{Shards: sp.shards})
	if err != nil {
		return nil, err
	}
	heavy := make(map[int]bool, sp.ues/8)
	for _, i := range rng.Perm(sp.ues)[:sp.ues/8] {
		heavy[i] = true
	}
	intervals := [...]int64{10, 20, 40}
	for i := 0; i < sp.ues; i++ {
		rnti := uint16(i + 1)
		u, err := cell.Attach(rnti, "", "208.95", 10+rng.Intn(19))
		if err != nil {
			return nil, err
		}
		flow := ran.FiveTuple{DstIP: uint32(rnti), DstPort: 5001, Proto: ran.ProtoUDP}
		if heavy[i] {
			u.AddSource(&ran.Saturating{Flow: flow, PktSize: 1500, RateBytesPerMS: 200 + rng.Intn(800)})
		} else {
			iv := intervals[rng.Intn(len(intervals))]
			u.AddSource(&ran.CBR{Flow: flow, Size: 172, IntervalMS: iv, StartMS: rng.Int63n(iv)})
		}
	}
	st := &station{cell: cell, nodeID: nodeID}
	for si := cell.NumShards() - 1; si >= 0 && st.lastUE == 0; si-- {
		cell.WithShardUEs(si, func(ues []*ran.UE) {
			if len(ues) > 0 {
				st.lastUE = ues[len(ues)-1].RNTI
			}
		})
	}
	st.agent = agent.New(agent.Config{
		NodeID: e2ap.GlobalE2NodeID{
			PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: e2ap.NodeENB, NodeID: nodeID,
		},
		Scheme:    sp.e2,
		Transport: transport.KindSCTPish,
	})
	for _, l := range sp.layers {
		var fn agent.RANFunction
		switch l {
		case sm.IDMACStats:
			fn = sm.NewMACStats(cell, sp.sm, st.agent)
		case sm.IDRLCStats:
			fn = sm.NewRLCStats(cell, sp.sm, st.agent)
		case sm.IDPDCPStats:
			fn = sm.NewPDCPStats(cell, sp.sm, st.agent)
		default:
			return nil, fmt.Errorf("bench: no stats SM %d", l)
		}
		if err := st.agent.RegisterFunction(fn); err != nil {
			return nil, err
		}
		st.fns = append(st.fns, fn)
	}
	if sp.slicing {
		fn := sm.NewSliceCtrl(cell, sp.sm)
		if err := st.agent.RegisterFunction(fn); err != nil {
			return nil, err
		}
		st.fns = append(st.fns, fn)
	}
	return st, nil
}

// connect attaches the station to the controller at addr and resolves
// the agent ID the controller assigned to it.
func (st *station) connect(srv *server.Server, addr string) error {
	if _, err := st.agent.Connect(addr); err != nil {
		return err
	}
	ok := waitUntil(5*time.Second, func() bool {
		for _, a := range srv.Agents() {
			if a.NodeID.NodeID == st.nodeID {
				st.id = a.ID
				return true
			}
		}
		return false
	})
	if !ok {
		return fmt.Errorf("bench: agent %d did not register", st.nodeID)
	}
	return nil
}

// subscribed reports whether every periodic reporter of the station has
// admitted want subscriptions.
func (st *station) subscribed(want int) bool {
	for _, fn := range st.fns {
		var n int
		switch f := fn.(type) {
		case *sm.StatsFunction:
			n = f.Subscriptions()
		case *sm.SliceCtrlFunction:
			n = f.Subscriptions()
		}
		if n < want {
			return false
		}
	}
	return true
}

// drawNodeIDs returns n distinct seed-drawn E2 node IDs. The tsdb keys
// federation series by the low 32 bits, so IDs stay below 2^31.
func drawNodeIDs(rng *rand.Rand, n int, accept func(id uint64) bool) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for len(out) < n {
		id := uint64(rng.Int31n(1<<30)) + 1
		if seen[id] || (accept != nil && !accept(id)) {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// sleepUntil blocks until t; a t in the past returns at once.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// pollStep is the observer's sleep between visibility polls and the
// stepper's sleep while the in-flight window is full.
const pollStep = 100 * time.Microsecond

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter brackets the measured window with the process-wide counters the
// end-to-end metrics are made of.
type meter struct {
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func startMeter() meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// stop returns the allocations (count, bytes) and GC cycles over the
// window.
func (m meter) stop() (allocs, allocBytes uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - m.mallocs, ms.TotalAlloc - m.bytes, ms.NumGC - m.gcs
}

// liveHeap is the heap in use after two collections. Workloads read it
// at the end of the paced phase: a fixed amount of work at a fixed
// offered rate has passed, so what is live repeats from run to run.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dist summarises a set of timings. hi is the highest percentile that
// still has ten samples beyond it (the median when there are too few).
type dist struct {
	n            int
	p50, hi, max float64
	hiPct        float64
}

func summarize(v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	d := dist{n: len(s), p50: metrics.PercentileFloats(s, 50), max: s[len(s)-1]}
	d.hi, d.hiPct = d.p50, 50
	if i := len(s) - 11; i > len(s)/2 {
		d.hi = s[i]
		d.hiPct = 100 * float64(i) / float64(len(s)-1)
	}
	return d
}

func median(v []float64) float64 { return summarize(v).p50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pacedCalls issues n synchronous operations open loop: operation k is
// due at t0 + k×every and runs on the caller's goroutine. Each is timed
// from its due time, or, with fromStart, from when it actually began;
// either way the generator's lateness is kept beside it.
func pacedCalls(res *result, n int, every time.Duration, fromStart bool, op func(due time.Time) error) pacedOut {
	var out pacedOut
	cpu0 := cpuSeconds()
	t0 := time.Now()
	for k := 1; k <= n; k++ {
		due := t0.Add(time.Duration(k) * every)
		sleepUntil(due)
		began := time.Now()
		out.late = append(out.late, ms(began.Sub(due)))
		err := op(due)
		res.check(1, btoi(err != nil), "%v", err)
		if fromStart {
			due = began
		}
		out.lat = append(out.lat, ms(time.Since(due)))
	}
	out.wall = time.Since(t0)
	out.cpu = cpuSeconds() - cpu0
	return out
}
