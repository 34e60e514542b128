package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/tsdb"
)

// roundLoop is the load generator of every workload that streams
// reports: a fleet of stations stepped by one goroutine, and one
// observer goroutine that detects when a round of reports has become
// visible in the store it was sent to.
//
// The stepper is the only caller of Fleet.Step and, through the fleet's
// after-slot hook, of sm.TickAll: RAN simulation, SM encode, E2AP
// encode and the socket write all run on it. Round r (0-based) is
// emitted by the TTI 1 + r×period: a fresh subscription reports on its
// first tick and every period after.
type roundLoop struct {
	name     string
	period   int64
	ttiWall  time.Duration
	burst    int  // TTIs stepped per wake-up of the paced phase
	raw      bool // streams are archived raw, not decoded into series
	stations []*station
	fleet    *ran.Fleet
	tr       *tracer
	sent     []sentinel

	ttis     int64        // TTIs stepped (stepper only)
	issued   atomic.Int64 // rounds emitted
	nextEmit atomic.Int64 // paced: due time (unix ns) of the next emitting TTI, else 0
	visible  atomic.Int64 // rounds visible on every stream
	// dueAt[r] is when round r's emitting TTI was due, visAt[r] when the
	// observer saw it visible (unix ns). The observer writes visAt[r]
	// before publishing visible > r.
	dueAt, visAt []int64
	stepSpan     int // harness span of the Fleet.Step in progress
	// pacedT0 and pacedBase place the paced phase in progress: cell time
	// pacedBase+k was due at pacedT0 + k×ttiWall (unix ns).
	pacedT0, pacedBase atomic.Int64

	stopObs  atomic.Bool
	obsDone  chan struct{}
	obsFault atomic.Bool // a sentinel moved further than pollDepth in one poll
}

// sentinel is the series (or raw archive) a report stream appends to
// last; a round is visible on the stream once the sentinel holds it.
type sentinel struct {
	store  *tsdb.Store
	key    tsdb.SeriesKey
	needle []byte // the series' opening in a WebSocket tsdb frame
	rounds int64  // rounds visible on this stream
	lastTS int64
	wsSeen int64 // samples of this series read by the WebSocket client
}

// pollDepth is how many newest samples the observer reads per sentinel
// and poll; rounds in flight stay well below it. maxPollDepth is how far
// back it looks before it gives a sentinel up for lost; every store
// keeps at least that many raw samples per series.
const (
	pollDepth    = 8
	maxPollDepth = 128
)

// lastField is the field a layer's report builder appends last per UE.
var lastField = map[uint16]tsdb.Field{
	sm.IDMACStats: tsdb.FieldThroughputBps, sm.IDRLCStats: tsdb.FieldSojournMS, sm.IDPDCPStats: tsdb.FieldTxBytes,
}

var fnAlias = map[uint16]string{sm.IDMACStats: "mac", sm.IDRLCStats: "rlc", sm.IDPDCPStats: "pdcp"}

// start builds the fleet over the stations and starts the observer.
// maxRounds bounds the rounds the run will ever emit.
func (l *roundLoop) start(maxRounds int) {
	cells := make([]*ran.Cell, len(l.stations))
	for i, st := range l.stations {
		cells[i] = st.cell
	}
	l.dueAt = make([]int64, maxRounds)
	l.visAt = make([]int64, maxRounds)
	l.fleet = ran.NewFleet(cells, 1, l.afterSlot)
	l.obsDone = make(chan struct{})
	go l.observe()
}

func (l *roundLoop) stop() {
	if l.obsDone != nil {
		l.stopObs.Store(true)
		<-l.obsDone
	}
	if l.fleet != nil {
		l.fleet.Close()
	}
	for _, st := range l.stations {
		st.agent.Close()
	}
}

// addSentinel registers the stream (agent key, function) of a station.
func (l *roundLoop) addSentinel(store *tsdb.Store, agentKey uint32, fn uint16, ue uint16) {
	k := tsdb.SeriesKey{Agent: agentKey, Fn: fn, UE: ue, Field: lastField[fn]}
	l.sent = append(l.sent, sentinel{
		store:  store,
		key:    k,
		needle: []byte(fmt.Sprintf(`"name":"%s.%d.%d.%s","samples":[`, fnAlias[fn], k.Agent, k.UE, k.Field)),
	})
}

// afterSlot is the fleet's per-TTI hook: it ticks every station's
// reporters on the stepper goroutine.
func (l *roundLoop) afterSlot(now int64) {
	sp := -1
	if (now-1)%l.period == 0 {
		sp = l.tr.beginChild(l.stepSpan, "sm.TickAll", l.issued.Load())
	}
	for _, st := range l.stations {
		sm.TickAll(st.fns, now)
	}
	l.tr.end(sp)
}

// stepTTI advances the fleet one TTI and reports whether it emitted a
// round.
func (l *roundLoop) stepTTI() bool {
	emits := l.ttis%l.period == 0
	l.stepSpan = -1
	if emits {
		l.stepSpan = l.tr.begin("Fleet.Step", l.issued.Load())
	}
	l.fleet.Step(1)
	l.ttis++
	if emits {
		l.tr.end(l.stepSpan)
		l.issued.Add(1)
	}
	return emits
}

// stepRound advances the fleet to the next emitting TTI.
func (l *roundLoop) stepRound() {
	for !l.stepTTI() {
	}
}

// runClosed pushes n rounds through with at most inflight of them not
// yet visible, then waits for the last. It returns the wall time from
// the first step to the last round visible. The stepper sleeps while
// the window is full; it never spins.
func (l *roundLoop) runClosed(n, inflight int) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for l.issued.Load()-l.visible.Load() >= int64(inflight) {
			time.Sleep(pollStep)
		}
		l.stepRound()
	}
	if err := l.drain(); err != nil {
		return 0, err
	}
	return time.Unix(0, l.visAt[l.issued.Load()-1]).Sub(t0), nil
}

// drain waits until every emitted round is visible.
func (l *roundLoop) drain() error {
	ok := waitUntil(20*time.Second, func() bool { return l.obsFault.Load() || l.visible.Load() >= l.issued.Load() })
	if l.obsFault.Load() {
		return fmt.Errorf("%s: observer lost count of a sentinel", l.name)
	}
	if !ok {
		return fmt.Errorf("%s: round %d of %d never became visible", l.name, l.visible.Load(), l.issued.Load())
	}
	return nil
}

// pacedOut is what one open-loop phase measured.
type pacedOut struct {
	from, to int64     // rounds [from, to) were emitted by the phase
	ttis     int       // TTIs stepped
	lat      []float64 // per burst: due → its last round visible, ms
	late     []float64 // how late the generator started each burst, ms
	cpu      float64   // process CPU seconds over the phase
	wall     time.Duration
}

// runPaced steps open loop: TTI k is due at t0 + k×ttiWall. The stepper
// wakes every burst TTIs, sleeping when early and catching up when
// late, and steps the TTIs that have come due; a round's latency runs
// from that due time. It steps ttis TTIs, or, with ttis < 0, until halt
// is set, ending on an emitting TTI so that the cells rest in the state
// they last reported.
func (l *roundLoop) runPaced(ttis int, halt *atomic.Bool) (pacedOut, error) {
	out := pacedOut{from: l.issued.Load()}
	burst := l.burst
	if burst < 1 {
		burst = 1
	}
	var finals []int64 // the last round of every burst
	cpu0 := cpuSeconds()
	t0 := time.Now()
	l.pacedBase.Store(l.ttis)
	l.pacedT0.Store(t0.UnixNano())
	for k := burst; ttis < 0 || k <= ttis; k += burst {
		at := t0.Add(time.Duration(k) * l.ttiWall)
		if next := (l.ttis + l.period - 1) / l.period * l.period; next < l.ttis+int64(burst) {
			l.nextEmit.Store(at.UnixNano())
		}
		sleepUntil(at)
		out.late = append(out.late, ms(time.Since(at)))
		last, emitted := int64(-1), false
		for i := 0; i < burst; i++ {
			if l.ttis%l.period == 0 {
				last = l.issued.Load()
				l.dueAt[last] = at.UnixNano()
				l.tr.mark("due", last, at)
			}
			emitted = l.stepTTI()
		}
		out.ttis += burst
		if last >= 0 {
			finals = append(finals, last)
		}
		if emitted && halt != nil && halt.Load() {
			break
		}
	}
	l.nextEmit.Store(0)
	if err := l.drain(); err != nil {
		return out, err
	}
	out.wall = time.Since(t0)
	out.cpu = cpuSeconds() - cpu0
	out.to = l.issued.Load()
	for _, rd := range finals {
		out.lat = append(out.lat, float64(l.visAt[rd]-l.dueAt[rd])/1e6)
	}
	return out, nil
}

// ttiDue is when the TTI that produced cell time now was due in the
// paced phase in progress (unix ns), 0 when it predates the phase.
func (l *roundLoop) ttiDue(now int64) int64 {
	k := now - l.pacedBase.Load()
	if t0 := l.pacedT0.Load(); t0 > 0 && k > 0 {
		return t0 + k*int64(l.ttiWall)
	}
	return 0
}

// maxInFlight is the largest number of rounds of [from, to) that were
// due but not yet visible at one time.
func (l *roundLoop) maxInFlight(from, to int64) int64 {
	var max int64
	for rd := from; rd < to; rd++ {
		n := int64(1)
		for prev := rd - 1; prev >= from && l.visAt[prev] > l.dueAt[rd]; prev-- {
			n++
		}
		if n > max {
			max = n
		}
	}
	return max
}

// latencies returns due → visible in ms for rounds [from, to).
func (l *roundLoop) latencies(from, to int64) []float64 {
	out := make([]float64, 0, to-from)
	for rd := from; rd < to; rd++ {
		out = append(out, float64(l.visAt[rd]-l.dueAt[rd])/1e6)
	}
	return out
}

// observe is the observer goroutine: while rounds are outstanding it
// polls the sentinels every pollStep; otherwise it sleeps until the
// next round is due.
func (l *roundLoop) observe() {
	defer close(l.obsDone)
	var buf []tsdb.Sample
	var raw []byte
	for !l.stopObs.Load() {
		issued, vis := l.issued.Load(), l.visible.Load()
		if vis >= issued {
			if ne := l.nextEmit.Load(); ne > 0 {
				if d := time.Until(time.Unix(0, ne)); d > pollStep {
					time.Sleep(d)
					continue
				}
			}
			time.Sleep(pollStep)
			continue
		}
		n := issued
		for i := range l.sent {
			s := &l.sent[i]
			if s.rounds <= vis {
				if l.raw {
					raw = l.pollRaw(s, raw)
				} else {
					buf = l.pollSeries(s, buf)
				}
			}
			if s.rounds < n {
				n = s.rounds
			}
		}
		if n <= vis {
			time.Sleep(pollStep)
			continue
		}
		now := time.Now()
		for rd := vis; rd < n; rd++ {
			l.visAt[rd] = now.UnixNano()
			l.tr.mark("tsdb.visible", rd, now)
		}
		l.visible.Store(n)
	}
}

// pollSeries counts the samples that reached the sentinel series since
// the last poll: one per round. When every sample it read is new it may
// have missed older ones — the observer was kept off the CPU while
// rounds landed — and reads again, deeper.
func (l *roundLoop) pollSeries(s *sentinel, buf []tsdb.Sample) []tsdb.Sample {
	for depth := pollDepth; ; depth *= 4 {
		buf = s.store.LastK(s.key, depth, buf)
		fresh := 0
		for _, smp := range buf {
			if smp.TS > s.lastTS {
				fresh++
			}
		}
		if fresh == depth && s.rounds > 0 {
			if depth >= maxPollDepth {
				l.obsFault.Store(true)
				return buf
			}
			continue
		}
		if fresh > 0 {
			s.rounds += int64(fresh)
			s.lastTS = buf[len(buf)-1].TS
		}
		return buf
	}
}

// pollRaw reads the newest archived payload of the sentinel's stream;
// its cell time tells which round it belongs to.
func (l *roundLoop) pollRaw(s *sentinel, raw []byte) []byte {
	raw, ts, ok := s.store.LastRaw(s.key.Agent, s.key.Fn, raw)
	if !ok || ts == s.lastTS {
		return raw
	}
	s.lastTS = ts
	if cell, ok := reportCellTime(s.key.Fn, raw); ok {
		s.rounds = (cell-1)/l.period + 1
	}
	return raw
}

func reportCellTime(fn uint16, payload []byte) (int64, bool) {
	switch fn {
	case sm.IDMACStats:
		if rep, err := sm.DecodeMACReport(payload); err == nil {
			return rep.CellTimeMS, true
		}
	case sm.IDRLCStats:
		if rep, err := sm.DecodeRLCReport(payload); err == nil {
			return rep.CellTimeMS, true
		}
	case sm.IDPDCPStats:
		if rep, err := sm.DecodePDCPReport(payload); err == nil {
			return rep.CellTimeMS, true
		}
	}
	return 0, false
}

// checkSentinels verifies that every stream accounts for exactly one
// sample per emitted round. capacity > 0 is the ring size of a store
// that overwrites its oldest samples.
func (l *roundLoop) checkSentinels(res *result, capacity int) {
	rounds := l.issued.Load()
	for i := range l.sent {
		s := &l.sent[i]
		if l.raw {
			res.check(1, btoi(s.rounds != rounds), "raw stream %d/%d at round %d, want %d", s.key.Agent, s.key.Fn, s.rounds, rounds)
			continue
		}
		want := int(rounds)
		if capacity > 0 && want > capacity {
			want = capacity
		}
		agg, _ := s.store.Aggregate(s.key, 0, 1<<62)
		res.check(1, btoi(agg.Count != want), "sentinel %v holds %d samples, want %d", s.key, agg.Count, want)
	}
}

func absDiff(a, b uint64) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
