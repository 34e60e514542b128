package xapp

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"flexric/internal/a1"
	"flexric/internal/ctrl"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/telemetry"
	"flexric/internal/trace"
	"flexric/internal/tsdb"
)

// SLAXApp is the closed loop that makes the slicing plane self-driving:
// every enforcement tick it reads the active A1 policies, evaluates
// their per-slice targets against windowed tsdb percentiles (p50
// throughput summed over the slice's UEs, worst-UE p95 RLC sojourn),
// and — when a violation survives the hysteresis filter and the
// per-policy cooldown — shifts NVS capacity weights through the
// slicing controller (plus an optional TC pacer remedy for latency
// violations). Verdicts land back in the policy store as status
// transitions, so /a1/status and the control-room a1 channel show the
// loop working.
//
// Unlike the REST xApps it is an iApp: it runs in the controller's
// process and calls the controllers, through the conversion and
// validation of their REST handlers, never the E2 plane itself.
type SLAXApp struct {
	cfg SLAConfig

	mu sync.Mutex
	rt map[string]*polRuntime

	stop chan struct{}
	done chan struct{}
}

// SLAConfig wires an SLAXApp.
type SLAConfig struct {
	// Policies is the A1 policy store to enforce.
	Policies *a1.Store
	// TSDB is the monitoring store the percentile windows read.
	TSDB *tsdb.Store
	// Slicing reads slice status and applies weight remedies.
	Slicing Slicer
	// TC applies latency remedies (nil = NVS weight remedies only).
	TC TCApplier
	// TickMS is the enforcement tick period (default 500; Run only).
	TickMS int
	// HysteresisTicks is how many consecutive violated ticks are needed
	// before a VIOLATED transition and a remedy (default 2).
	HysteresisTicks int
	// StepShare is the capacity share granted to a violated slice per
	// remedy (default 0.10).
	StepShare float64
	// MinShare is the floor no donor slice is squeezed below (default
	// 0.05).
	MinShare float64
	// MinWindowSamples is how many samples a window needs before its
	// aggregate is trusted (default 3).
	MinWindowSamples int
	// PacerTargetMS is the BDP pacer target installed on latency
	// remedies when TC is set (default 4).
	PacerTargetMS uint32
}

// Slicer is the loop's view of a *ctrl.SlicingController.
type Slicer interface {
	SliceStatus(id server.AgentID) *sm.SliceStatus
	Apply(id server.AgentID, ctl *sm.SliceControl) error
}

// TCApplier is the loop's view of a *ctrl.TCController.
type TCApplier interface {
	Apply(id server.AgentID, ctl *sm.TCControl) ([]byte, error)
}

// polRuntime is the per-policy hysteresis/cooldown state.
type polRuntime struct {
	version      uint64 // runtime resets when the policy version moves
	violTicks    int
	lastRemedyNS int64
}

var slaTel = struct {
	ticks      *telemetry.Counter
	evaluated  *telemetry.Counter
	violations *telemetry.Counter
	remedies   *telemetry.Counter
	tcRemedies *telemetry.Counter
	tickLat    *telemetry.Histogram
}{
	ticks:      telemetry.NewCounter("a1.enforce.ticks"),
	evaluated:  telemetry.NewCounter("a1.enforce.evaluated"),
	violations: telemetry.NewCounter("a1.enforce.violations"),
	remedies:   telemetry.NewCounter("a1.enforce.remedies"),
	tcRemedies: telemetry.NewCounter("a1.enforce.tc_remedies"),
	tickLat:    telemetry.NewHistogram("a1.enforce.latency"),
}

// NewSLAXApp builds the loop; call Run (ticker) or EnforceOnce
// (deterministic, for tests and experiments).
func NewSLAXApp(cfg SLAConfig) *SLAXApp {
	if cfg.TickMS <= 0 {
		cfg.TickMS = 500
	}
	if cfg.HysteresisTicks <= 0 {
		cfg.HysteresisTicks = 2
	}
	if cfg.StepShare <= 0 {
		cfg.StepShare = 0.10
	}
	if cfg.MinShare <= 0 {
		cfg.MinShare = 0.05
	}
	if cfg.MinWindowSamples <= 0 {
		cfg.MinWindowSamples = 3
	}
	if cfg.PacerTargetMS == 0 {
		cfg.PacerTargetMS = 4
	}
	return &SLAXApp{
		cfg:  cfg,
		rt:   make(map[string]*polRuntime),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Run ticks EnforceOnce every TickMS until Close.
func (x *SLAXApp) Run() {
	defer close(x.done)
	tick := time.NewTicker(time.Duration(x.cfg.TickMS) * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-x.stop:
			return
		case <-tick.C:
			x.EnforceOnce()
		}
	}
}

// Close stops a running loop. Safe to call without Run only if Run is
// never started afterwards.
func (x *SLAXApp) Close() {
	select {
	case <-x.stop:
	default:
		close(x.stop)
	}
	<-x.done
}

// SliceEval is one slice target's evaluation inside a decision.
type SliceEval struct {
	SliceID        uint32  `json:"sliceId"`
	UEs            int     `json:"ues"`
	ThroughputMbps float64 `json:"throughputMbps"` // p50 per UE, summed
	LatencyMSP95   float64 `json:"latencyMsP95"`   // worst UE p95
	Samples        int     `json:"samples"`
	Violated       bool    `json:"violated"`
	Reason         string  `json:"reason,omitempty"`
}

// PolicyDecision is what one enforcement tick concluded for one
// policy.
type PolicyDecision struct {
	PolicyID  string             `json:"policyId"`
	Agent     int                `json:"agent"`
	Status    a1.Status          `json:"status"`
	Reason    string             `json:"reason,omitempty"`
	Slices    []SliceEval        `json:"slices,omitempty"`
	Remedied  bool               `json:"remedied"`
	NewShares map[uint32]float64 `json:"newShares,omitempty"`
}

// EnforceOnce runs one enforcement tick over every policy and returns
// the decisions. It is the loop body of Run, exported so tests and
// experiments can drive the loop deterministically.
func (x *SLAXApp) EnforceOnce() []PolicyDecision {
	sp := trace.StartRoot("a1.enforce")
	defer sp.End()
	t0 := time.Now()
	defer func() { slaTel.tickLat.Observe(time.Since(t0)) }()
	slaTel.ticks.Inc()

	var decisions []PolicyDecision
	for _, agent := range x.cfg.Policies.Agents() {
		// One status read per agent covers all its policies this tick.
		status := x.cfg.Slicing.SliceStatus(server.AgentID(agent))
		for _, st := range x.cfg.Policies.ActiveFor(agent) {
			psp := trace.StartChild(sp.Context(), "a1.enforce.policy")
			d := x.enforcePolicy(psp, st, status)
			psp.End()
			decisions = append(decisions, d)
		}
	}
	return decisions
}

// enforcePolicy evaluates one policy against the agent's slice status
// (nil before the agent's first report) and records the verdict in the
// store.
func (x *SLAXApp) enforcePolicy(sp trace.Span, st a1.State, status *sm.SliceStatus) PolicyDecision {
	slaTel.evaluated.Inc()
	pol := st.Policy
	d := PolicyDecision{PolicyID: pol.ID, Agent: pol.Agent}
	rt := x.runtime(pol.ID, pol.Version)

	if status == nil || status.Algo != "nvs" {
		rt.violTicks = 0
		d.Status = a1.StatusNotApplied
		d.Reason = "no NVS slice configuration on agent"
		if status == nil {
			d.Reason = "no slice status from agent"
		}
		x.cfg.Policies.SetStatus(pol.ID, d.Status, d.Reason)
		return d
	}

	// Slice membership from the status report.
	members := make(map[uint32][]uint16)
	for _, a := range status.UEs {
		members[a.SliceID] = append(members[a.SliceID], a.RNTI)
	}

	now := time.Now().UnixNano()
	violated := make(map[uint32]bool)
	var firstReason string
	for _, tgt := range pol.Targets {
		ev := x.evalTarget(pol.Agent, tgt, members[tgt.SliceID], pol.WindowMS, now)
		d.Slices = append(d.Slices, ev)
		if ev.Violated {
			violated[tgt.SliceID] = true
			if firstReason == "" {
				firstReason = ev.Reason
			}
		}
	}

	if len(violated) == 0 {
		rt.violTicks = 0
		d.Status = a1.StatusEnforced
		d.Reason = "all targets met"
		x.cfg.Policies.SetStatus(pol.ID, d.Status, d.Reason)
		return d
	}

	// A violation this tick; hold the previous status until it survives
	// the hysteresis filter.
	rt.violTicks++
	if rt.violTicks < x.cfg.HysteresisTicks {
		d.Status = st.Status
		d.Reason = fmt.Sprintf("violation pending hysteresis (%d/%d): %s",
			rt.violTicks, x.cfg.HysteresisTicks, firstReason)
		return d
	}

	slaTel.violations.Inc()
	d.Status = a1.StatusViolated
	d.Reason = firstReason
	x.cfg.Policies.SetStatus(pol.ID, d.Status, d.Reason)

	// Remedy, rate-limited by the per-policy cooldown.
	cooldown := pol.CooldownMS
	if cooldown == 0 {
		cooldown = 2 * pol.WindowMS
	}
	if now-rt.lastRemedyNS < cooldown*int64(time.Millisecond) {
		return d
	}
	rsp := trace.StartChild(sp.Context(), "a1.enforce.remedy")
	shares, err := x.remedyWeights(pol.Agent, status, violated)
	rsp.End()
	if err == nil && shares != nil {
		rt.lastRemedyNS = now
		d.Remedied = true
		d.NewShares = shares
		slaTel.remedies.Inc()
	}
	if x.cfg.TC != nil {
		x.remedyLatency(pol.Agent, d.Slices, members)
	}
	return d
}

// runtime returns (and resets on version change) the per-policy
// hysteresis/cooldown state.
func (x *SLAXApp) runtime(id string, version uint64) *polRuntime {
	x.mu.Lock()
	defer x.mu.Unlock()
	rt := x.rt[id]
	if rt == nil || rt.version != version {
		rt = &polRuntime{version: version}
		x.rt[id] = rt
	}
	return rt
}

// evalTarget evaluates one slice target over the trailing window using
// the single-pass Window query (one bucket spanning the whole window).
func (x *SLAXApp) evalTarget(agent int, tgt a1.SliceTarget, rntis []uint16, windowMS int64, now int64) SliceEval {
	ev := SliceEval{SliceID: tgt.SliceID, UEs: len(rntis)}
	if len(rntis) == 0 {
		ev.Reason = "no UEs associated"
		return ev
	}
	from := now - windowMS*int64(time.Millisecond)
	window := now - from

	if tgt.MinThroughputMbps > 0 {
		sum, samples := 0.0, math.MaxInt
		for _, rnti := range rntis {
			k := tsdb.SeriesKey{Agent: uint32(agent), Fn: sm.IDMACStats, UE: rnti, Field: tsdb.FieldThroughputBps}
			buckets := x.cfg.TSDB.Window(k, from, now, window)
			if len(buckets) == 0 || buckets[0].Agg.Count == 0 {
				samples = 0
				continue
			}
			sum += buckets[0].Agg.P50
			if buckets[0].Agg.Count < samples {
				samples = buckets[0].Agg.Count
			}
		}
		ev.ThroughputMbps = sum / 1e6
		ev.Samples = samples
		if samples >= x.cfg.MinWindowSamples && ev.ThroughputMbps < tgt.MinThroughputMbps {
			ev.Violated = true
			ev.Reason = fmt.Sprintf("slice %d p50 throughput %.1f Mbps < target %.1f",
				tgt.SliceID, ev.ThroughputMbps, tgt.MinThroughputMbps)
		}
	}

	if tgt.MaxLatencyMS > 0 {
		worst, samples := 0.0, 0
		for _, rnti := range rntis {
			k := tsdb.SeriesKey{Agent: uint32(agent), Fn: sm.IDRLCStats, UE: rnti, Field: tsdb.FieldSojournMS}
			buckets := x.cfg.TSDB.Window(k, from, now, window)
			if len(buckets) == 0 || buckets[0].Agg.Count == 0 {
				continue
			}
			if buckets[0].Agg.P95 > worst {
				worst = buckets[0].Agg.P95
			}
			samples += buckets[0].Agg.Count
		}
		ev.LatencyMSP95 = worst
		if samples >= x.cfg.MinWindowSamples && worst > tgt.MaxLatencyMS {
			ev.Violated = true
			if ev.Reason != "" {
				ev.Reason += "; "
			}
			ev.Reason += fmt.Sprintf("slice %d p95 sojourn %.1f ms > target %.1f",
				tgt.SliceID, worst, tgt.MaxLatencyMS)
		}
	}
	return ev
}

// remedyWeights shifts NVS capacity shares toward the violated slices:
// each violated slice gains StepShare, funded proportionally by the
// non-violated slices' headroom above MinShare, and the new layout is
// applied as a POST /slices body would be. Returns the new shares, or
// (nil, nil) when no shift is possible (rate-kind slices present,
// violated slice already at max, or no donor headroom).
func (x *SLAXApp) remedyWeights(agent int, status *sm.SliceStatus, violated map[uint32]bool) (map[uint32]float64, error) {
	shares := make(map[uint32]float64, len(status.Slices))
	scheds := make(map[uint32]string, len(status.Slices))
	for _, s := range status.Slices {
		if s.Kind != 0 {
			return nil, nil // mixed rate-kind layouts are not adjusted
		}
		shares[s.ID] = float64(s.CapacityQ) / 1e6
		scheds[s.ID] = s.UESched
	}
	if len(shares) < 2 {
		return nil, nil // nothing to take from
	}

	// Donor headroom above the floor.
	surplus := 0.0
	for id, sh := range shares {
		if !violated[id] && sh > x.cfg.MinShare {
			surplus += sh - x.cfg.MinShare
		}
	}
	want := x.cfg.StepShare * float64(len(violated))
	grant := math.Min(want, surplus)
	if grant <= 1e-9 {
		return nil, nil // donors already squeezed to the floor
	}

	next := make(map[uint32]float64, len(shares))
	for id, sh := range shares {
		switch {
		case violated[id]:
			next[id] = sh + grant/float64(len(violated))
		case sh > x.cfg.MinShare:
			next[id] = sh - grant*(sh-x.cfg.MinShare)/surplus
		default:
			next[id] = sh
		}
	}

	cfg := ctrl.SliceConfigJSON{Algo: "nvs"}
	for id, sh := range next {
		cfg.Slices = append(cfg.Slices, ctrl.SliceParamJSON{ID: id, Kind: "capacity", Capacity: sh, UESched: scheds[id]})
	}
	sort.Slice(cfg.Slices, func(i, j int) bool { return cfg.Slices[i].ID < cfg.Slices[j].ID })
	ctl, err := ctrl.SliceControlFromJSON(&cfg)
	if err != nil {
		return nil, err
	}
	if err := x.cfg.Slicing.Apply(server.AgentID(agent), ctl); err != nil {
		return nil, err
	}
	return next, nil
}

// remedyLatency installs the BDP pacer on the worst UE of each
// latency-violated slice through the TC controller — the same remedy
// the TC xApp applies, driven by policy instead of a watch loop.
func (x *SLAXApp) remedyLatency(agent int, evals []SliceEval, members map[uint32][]uint16) {
	for _, ev := range evals {
		if !ev.Violated || ev.LatencyMSP95 == 0 {
			continue
		}
		for _, rnti := range members[ev.SliceID] {
			ctl, err := ctrl.TCControlFromJSON(&ctrl.TCCommandJSON{
				Op: "setPacer", RNTI: rnti, Pacer: "bdp", PacerTargetMS: x.cfg.PacerTargetMS,
			})
			if err == nil {
				_, err = x.cfg.TC.Apply(server.AgentID(agent), ctl)
			}
			if err == nil {
				slaTel.tcRemedies.Inc()
			}
		}
	}
}
