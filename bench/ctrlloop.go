package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/nvs"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/transport"
)

// ctrl_loop: the control direction, what SLAXApp's remedy does. One
// caller — the stepper goroutine itself — runs cycles against the
// slicing controller's REST northbound: step one TTI, POST seed-drawn
// NVS weights for one agent, which travel as an E2 control to the
// agent's slice-control SM and back as an ack, and verify that the
// cell's slices equal what was posted.

// ctrlSpec sizes ctrl_loop.
type ctrlSpec struct {
	agents, ues int
	warmCycles  int
	// cycleWall is the open-loop phase's interval between cycles.
	cycleWall time.Duration
	// satCyclesPerS × the closed-loop phase's share of -seconds is the
	// fixed number of back-to-back cycles.
	satCyclesPerS float64
}

var ctrlLoop = ctrlSpec{agents: 2, ues: 32, warmCycles: 12000, cycleWall: 5 * time.Millisecond, satCyclesPerS: 10500}

// weightDenom makes every posted capacity k/64: exact in binary, so the
// REST layer's float → parts-per-million → float conversion returns the
// posted value bit for bit.
const weightDenom = 64

type ctrlRig struct {
	sp       ctrlSpec
	srv      *server.Server
	sc       *ctrl.SlicingController
	stations []*station
	fleet    *ran.Fleet
	client   *http.Client
	tr       *tracer
	// weights[k] are the two slice weights of cycle k, in 64ths.
	weights [][2]int
	cycles  int
	ttis    int64
}

func setupCtrl(e *env, sp ctrlSpec, maxCycles int) (*ctrlRig, error) {
	rng := rand.New(rand.NewSource(e.seed))
	r := &ctrlRig{sp: sp, tr: e.tr, client: &http.Client{Timeout: 10 * time.Second}}
	r.srv = server.New(server.Config{Scheme: e2ap.SchemeASN, Transport: transport.KindSCTPish})
	addr, err := r.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.sc, err = ctrl.NewSlicingController(r.srv, sm.SchemeASN, "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	cells := make([]*ran.Cell, 0, sp.agents)
	for _, id := range drawNodeIDs(rng, sp.agents, nil) {
		st, err := newStation(rng, id, stationSpec{ues: sp.ues, shards: 1,
			layers: []uint16{sm.IDMACStats}, slicing: true, e2: e2ap.SchemeASN, sm: sm.SchemeASN})
		if err != nil {
			r.close()
			return nil, err
		}
		r.stations = append(r.stations, st)
		if err := st.connect(r.srv, addr); err != nil {
			r.close()
			return nil, err
		}
		cells = append(cells, st.cell)
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
		return nil, fmt.Errorf("ctrl_loop: subscriptions not admitted")
	}
	r.fleet = ran.NewFleet(cells, 1, func(now int64) {
		for _, st := range r.stations {
			sm.TickAll(st.fns, now)
		}
	})
	r.weights = make([][2]int, maxCycles)
	for k := range r.weights {
		a := 1 + rng.Intn(weightDenom-1)
		r.weights[k] = [2]int{a, 1 + rng.Intn(weightDenom-a)}
	}
	// Two NVS slices, the UEs split between them.
	for _, st := range r.stations {
		if err := r.post(st, "/slices", sliceBody([2]int{weightDenom / 2, weightDenom / 2})); err != nil {
			r.close()
			return nil, err
		}
		for rnti := 1; rnti <= sp.ues; rnti++ {
			body := fmt.Sprintf(`{"rnti":%d,"sliceId":%d}`, rnti, 1+rnti%2)
			if err := r.post(st, "/assoc", body); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	for i := 0; i < sp.warmCycles; i++ {
		if err := r.cycle(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func sliceBody(w [2]int) string {
	return fmt.Sprintf(`{"algo":"nvs","slices":[{"id":1,"kind":"capacity","capacity":%g},{"id":2,"kind":"capacity","capacity":%g}]}`,
		float64(w[0])/weightDenom, float64(w[1])/weightDenom)
}

// post sends one JSON body to the slicing northbound for a station's
// agent and requires 204.
func (r *ctrlRig) post(st *station, path, body string) error {
	url := fmt.Sprintf("http://%s%s?agent=%d", r.sc.Addr(), path, st.id)
	resp, err := r.client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("POST %s: %s", path, resp.Status)
	}
	return nil
}

// cycle runs one control cycle; an error means the cycle failed the
// oracle.
func (r *ctrlRig) cycle() error {
	k := r.cycles
	r.cycles++
	root := r.tr.begin("cycle", int64(k))
	defer r.tr.end(root)
	sp := r.tr.beginChild(root, "Fleet.Step", int64(k))
	r.fleet.Step(1)
	r.ttis++
	r.tr.end(sp)
	st := r.stations[k%len(r.stations)]
	w := r.weights[k]
	sp = r.tr.beginChild(root, "http.POST /slices", int64(k))
	err := r.post(st, "/slices", sliceBody(w))
	r.tr.end(sp)
	if err != nil {
		return err
	}
	got := st.cell.Slices()
	want := []nvs.Config{
		{ID: 1, Kind: nvs.KindCapacity, Capacity: float64(w[0]) / weightDenom},
		{ID: 2, Kind: nvs.KindCapacity, Capacity: float64(w[1]) / weightDenom},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		return fmt.Errorf("cycle %d: cell has slices %+v, posted %+v", k, got, want)
	}
	return nil
}

func (r *ctrlRig) close() {
	if r.fleet != nil {
		r.fleet.Close()
	}
	for _, st := range r.stations {
		st.agent.Close()
	}
	r.srv.Close()
	if r.sc != nil {
		r.sc.Close()
		r.sc.Monitor().Close()
	}
	r.client.CloseIdleConnections()
}

func runCtrlLoop(e *env) (*result, error) {
	sp := ctrlLoop
	if e.smoke {
		sp.warmCycles, sp.satCyclesPerS = 20, 400
	}
	pacedFor := time.Duration(e.seconds * pacedShare * float64(time.Second))
	pacedCycles := int(pacedFor / sp.cycleWall)
	satCycles := int(sp.satCyclesPerS * e.seconds * (1 - pacedShare))
	maxCycles := sp.warmCycles + 2*pacedCycles + satCycles

	var r *ctrlRig
	setup, err := timeSetups(e, func() (func(), error) {
		var err error
		r, err = setupCtrl(e, sp, maxCycles)
		if err != nil {
			return nil, err
		}
		return r.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer r.close()

	res := newResult("ctrl_loop")
	// A cycle takes a fraction of the box's timer granularity (about
	// 1 ms), so timing from the due time would time the generator's own
	// wake-up: the latency is the cycle's round trip from its start.
	runPacedCycles := func(n int) pacedOut {
		return pacedCalls(res, n, sp.cycleWall, true, func(time.Time) error { return r.cycle() })
	}

	lt := startLayerTrace(e)
	if lt != nil {
		lt.enable(runPacedCycles(pacedCycles / 2))
	}
	m := startMeter()
	paced := runPacedCycles(pacedCycles)
	lt.endPaced(paced)
	heap := liveHeap()
	t0 := time.Now()
	for i := 0; i < satCycles; i++ {
		err := r.cycle()
		res.check(1, btoi(err != nil), "%v", err)
	}
	satWall := time.Since(t0)
	allocs, allocBytes, gcs := m.stop()

	lat := summarize(paced.lat)
	res.setE2E(setup, lat, paced, float64(satCycles)/satWall.Seconds(), allocs, heap)
	res.info = fmt.Sprintf("paced %d cycles in %.2f s (p50 %.3f ms, p%.1f %.3f ms), %d back-to-back cycles in %.2f s",
		lat.n, paced.wall.Seconds(), lat.p50, lat.hiPct, lat.hi, satCycles, satWall.Seconds())

	// The MAC stream beside the control traffic lost nothing: the
	// controller's internal monitor reports every 10 TTIs.
	wantInds := uint64(len(r.stations)) * uint64(1+(r.ttis-1)/10)
	var gotInds, wire uint64
	waitUntil(2*time.Second, func() bool {
		gotInds, wire = r.sc.Monitor().Counters()
		return gotInds >= wantInds
	})
	res.check(int(wantInds), absDiff(wantInds, gotInds), "MAC indications received %d, want %d", gotInds, wantInds)
	res.counts["cycles"] = uint64(r.cycles)
	res.counts["attempted"] = uint64(res.attempted)
	res.counts["indications"] = gotInds
	res.counts["sm_bytes"] = wire

	if lt != nil {
		lt.common(res, nil, paced, lat, 1, allocBytes, gcs)
		lt.ctrlLayers(res, r, lat)
	}
	return res, nil
}
