package xapp

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"flexric/internal/a1"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/tsdb"
)

// fakeSlicing stands in for the slicing controller: it serves a canned
// sm.SliceStatus and records the SC controls the loop applies.
type fakeSlicing struct {
	mu      sync.Mutex
	status  *sm.SliceStatus // nil before the agent's first report
	applied []*sm.SliceControl
}

func (f *fakeSlicing) SliceStatus(server.AgentID) *sm.SliceStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

func (f *fakeSlicing) Apply(_ server.AgentID, ctl *sm.SliceControl) error {
	f.mu.Lock()
	f.applied = append(f.applied, ctl)
	f.mu.Unlock()
	return nil
}

func (f *fakeSlicing) setStatus(st *sm.SliceStatus) {
	f.mu.Lock()
	f.status = st
	f.mu.Unlock()
}

func (f *fakeSlicing) controls() []*sm.SliceControl {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*sm.SliceControl(nil), f.applied...)
}

// fakeTC stands in for the TC controller and records its controls.
type fakeTC struct {
	mu      sync.Mutex
	applied []*sm.TCControl
}

func (f *fakeTC) Apply(_ server.AgentID, ctl *sm.TCControl) ([]byte, error) {
	f.mu.Lock()
	f.applied = append(f.applied, ctl)
	f.mu.Unlock()
	return nil, nil
}

func (f *fakeTC) controls() []*sm.TCControl {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*sm.TCControl(nil), f.applied...)
}

// nvsStatus is the canonical two-slice NVS layout the tests use:
// slice 1 (0.3, UE 17) and slice 2 (0.7, UE 18).
func nvsStatus() *sm.SliceStatus {
	return &sm.SliceStatus{
		Algo: "nvs",
		Slices: []sm.SliceParams{
			{ID: 1, Kind: 0, CapacityQ: 300_000, UESched: "pf"},
			{ID: 2, Kind: 0, CapacityQ: 700_000, UESched: "pf"},
		},
		UEs: []sm.UESliceAssoc{{RNTI: 17, SliceID: 1}, {RNTI: 18, SliceID: 2}},
	}
}

// fillWindow appends n samples of value v over the trailing second so
// windowed percentile queries see them.
func fillWindow(st *tsdb.Store, agent uint32, fn uint16, ue uint16, field tsdb.Field, n int, v float64) {
	now := time.Now().UnixNano()
	for i := 0; i < n; i++ {
		ts := now - int64(n-i)*int64(50*time.Millisecond)
		st.Append(tsdb.SeriesKey{Agent: agent, Fn: fn, UE: ue, Field: field}, ts, v)
	}
}

func newSLAFixture(t *testing.T, f *fakeSlicing, pol a1.Policy, tc TCApplier) (*SLAXApp, *a1.Store, *tsdb.Store) {
	t.Helper()
	store := a1.NewStore()
	if _, err := store.Create(pol); err != nil {
		t.Fatal(err)
	}
	ts := tsdb.New(tsdb.Config{Capacity: 256})
	x := NewSLAXApp(SLAConfig{
		Policies:        store,
		TSDB:            ts,
		Slicing:         f,
		TC:              tc,
		HysteresisTicks: 2,
	})
	return x, store, ts
}

func slaPolicy() a1.Policy {
	return a1.Policy{
		ID: "sla-slice1", TypeID: a1.TypeSliceSLA, Agent: 0, Priority: 10,
		WindowMS: 1000,
		Targets:  []a1.SliceTarget{{SliceID: 1, MinThroughputMbps: 45}},
	}
}

func TestSLANotAppliedPaths(t *testing.T) {
	f := &fakeSlicing{}
	x, store, _ := newSLAFixture(t, f, slaPolicy(), nil)

	// No status at all from the agent.
	ds := x.EnforceOnce()
	if len(ds) != 1 || ds[0].Status != a1.StatusNotApplied || ds[0].Reason != "no slice status from agent" {
		t.Fatalf("decisions %+v", ds)
	}

	// Status present but not NVS.
	f.setStatus(&sm.SliceStatus{Algo: "none"})
	ds = x.EnforceOnce()
	if ds[0].Status != a1.StatusNotApplied || ds[0].Reason != "no NVS slice configuration on agent" {
		t.Fatalf("decisions %+v", ds)
	}
	st, _ := store.Get("sla-slice1")
	if st.Status != a1.StatusNotApplied {
		t.Fatalf("store status %v", st.Status)
	}
}

func TestSLAEnforcedWhenTargetsMet(t *testing.T) {
	f := &fakeSlicing{}
	f.setStatus(nvsStatus())
	x, store, ts := newSLAFixture(t, f, slaPolicy(), nil)
	// 60 Mbps p50 on the slice-1 UE: comfortably above the 45 Mbps target.
	fillWindow(ts, 0, sm.IDMACStats, 17, tsdb.FieldThroughputBps, 6, 60e6)

	ds := x.EnforceOnce()
	if ds[0].Status != a1.StatusEnforced || ds[0].Reason != "all targets met" {
		t.Fatalf("decision %+v", ds[0])
	}
	if len(ds[0].Slices) != 1 || ds[0].Slices[0].Violated || math.Abs(ds[0].Slices[0].ThroughputMbps-60) > 1 {
		t.Fatalf("slice eval %+v", ds[0].Slices)
	}
	st, _ := store.Get("sla-slice1")
	if st.Status != a1.StatusEnforced {
		t.Fatalf("store status %v", st.Status)
	}
	if got := f.controls(); len(got) != 0 {
		t.Fatalf("unexpected remedy %+v", got)
	}
}

func TestSLAInsufficientSamplesDoNotViolate(t *testing.T) {
	f := &fakeSlicing{}
	f.setStatus(nvsStatus())
	x, _, ts := newSLAFixture(t, f, slaPolicy(), nil)
	// Throughput is below target but only 2 samples exist — under the
	// default MinWindowSamples of 3 the window is not trusted.
	fillWindow(ts, 0, sm.IDMACStats, 17, tsdb.FieldThroughputBps, 2, 10e6)

	ds := x.EnforceOnce()
	if ds[0].Status != a1.StatusEnforced {
		t.Fatalf("decision %+v", ds[0])
	}
	if ds[0].Slices[0].Violated || ds[0].Slices[0].Samples != 2 {
		t.Fatalf("slice eval %+v", ds[0].Slices[0])
	}
}

func TestSLAHysteresisRemedyAndCooldown(t *testing.T) {
	f := &fakeSlicing{}
	f.setStatus(nvsStatus())
	x, store, ts := newSLAFixture(t, f, slaPolicy(), nil)
	// Slice 1 stuck at 20 Mbps p50, below the 45 Mbps target.
	fillWindow(ts, 0, sm.IDMACStats, 17, tsdb.FieldThroughputBps, 6, 20e6)

	// Tick 1: violation observed but held by hysteresis — no transition,
	// no remedy.
	ds := x.EnforceOnce()
	if ds[0].Status != a1.StatusNotApplied || ds[0].Remedied {
		t.Fatalf("tick1 %+v", ds[0])
	}
	if st, _ := store.Get("sla-slice1"); st.Status != a1.StatusNotApplied {
		t.Fatalf("tick1 store %v", st.Status)
	}

	// Tick 2: hysteresis satisfied — VIOLATED transition plus a weight
	// remedy shifting capacity from slice 2 to slice 1.
	ds = x.EnforceOnce()
	if ds[0].Status != a1.StatusViolated || !ds[0].Remedied {
		t.Fatalf("tick2 %+v", ds[0])
	}
	if math.Abs(ds[0].NewShares[1]-0.4) > 1e-6 || math.Abs(ds[0].NewShares[2]-0.6) > 1e-6 {
		t.Fatalf("tick2 shares %+v", ds[0].NewShares)
	}
	// The control a POST /slices of {0.4, 0.6} converts to: capacity
	// kind, shares in parts per million, schedulers kept, by slice ID.
	want := &sm.SliceControl{Op: sm.OpConfigureSlices, Slices: []sm.SliceParams{
		{ID: 1, Kind: 0, CapacityQ: 400_000, UESched: "pf"},
		{ID: 2, Kind: 0, CapacityQ: 600_000, UESched: "pf"},
	}}
	if ctls := f.controls(); len(ctls) != 1 || !reflect.DeepEqual(ctls[0], want) {
		t.Fatalf("remedy controls %+v, want %+v", ctls, want)
	}
	if st, _ := store.Get("sla-slice1"); st.Status != a1.StatusViolated {
		t.Fatalf("tick2 store %v", st.Status)
	}

	// Tick 3: still violated, but inside the cooldown (2×WindowMS = 2 s)
	// — status stays VIOLATED and no second remedy fires.
	ds = x.EnforceOnce()
	if ds[0].Status != a1.StatusViolated || ds[0].Remedied {
		t.Fatalf("tick3 %+v", ds[0])
	}
	if got := f.controls(); len(got) != 1 {
		t.Fatalf("cooldown ignored, controls %+v", got)
	}

	// Recovery: throughput back above target — ENFORCED again and the
	// hysteresis counter resets.
	fillWindow(ts, 0, sm.IDMACStats, 17, tsdb.FieldThroughputBps, 6, 80e6)
	ds = x.EnforceOnce()
	if ds[0].Status != a1.StatusEnforced {
		t.Fatalf("recovery %+v", ds[0])
	}
	st, _ := store.Get("sla-slice1")
	if st.Status != a1.StatusEnforced || st.Transitions < 2 {
		t.Fatalf("recovery store %+v", st)
	}
}

// TestSLARemedyOutOfRangeShareNotApplied: an agent may report a slice
// share above 1. The shifted layout then fails the (0, 1] capacity
// check that guards POST /slices, and the loop applies nothing.
func TestSLARemedyOutOfRangeShareNotApplied(t *testing.T) {
	f := &fakeSlicing{}
	st := nvsStatus()
	st.Slices[0].CapacityQ = 1_000_000 // slice 1 at the full cell gains 0.1
	st.Slices[1].CapacityQ = 1_500_000
	f.setStatus(st)
	x, _, ts := newSLAFixture(t, f, slaPolicy(), nil)
	fillWindow(ts, 0, sm.IDMACStats, 17, tsdb.FieldThroughputBps, 6, 20e6)

	x.EnforceOnce() // held by hysteresis
	ds := x.EnforceOnce()
	if ds[0].Status != a1.StatusViolated || ds[0].Remedied || ds[0].NewShares != nil {
		t.Fatalf("decision %+v", ds[0])
	}
	if got := f.controls(); len(got) != 0 {
		t.Fatalf("out-of-range layout applied: %+v", got)
	}
}

func TestSLALatencyRemedyViaTC(t *testing.T) {
	f := &fakeSlicing{}
	f.setStatus(nvsStatus())
	pol := a1.Policy{
		ID: "sla-lat", TypeID: a1.TypeSliceSLA, Agent: 0,
		WindowMS: 1000,
		Targets:  []a1.SliceTarget{{SliceID: 2, MaxLatencyMS: 5}},
	}
	tc := &fakeTC{}
	x, _, ts := newSLAFixture(t, f, pol, tc)
	// Slice-2 UE sojourn p95 ~ 30 ms, way over the 5 ms budget.
	fillWindow(ts, 0, sm.IDRLCStats, 18, tsdb.FieldSojournMS, 6, 30)

	x.EnforceOnce() // held by hysteresis
	ds := x.EnforceOnce()
	if ds[0].Status != a1.StatusViolated {
		t.Fatalf("decision %+v", ds[0])
	}
	// The control a POST /tc of setPacer bdp 4 ms for UE 18 converts to.
	want := &sm.TCControl{Op: sm.OpSetPacer, RNTI: 18, Pacer: 1, PacerTargetMS: 4}
	if ctls := tc.controls(); len(ctls) != 1 || !reflect.DeepEqual(ctls[0], want) {
		t.Fatalf("tc controls %+v, want %+v", ctls, want)
	}
}

func TestSLARuntimeResetsOnPolicyUpdate(t *testing.T) {
	f := &fakeSlicing{}
	f.setStatus(nvsStatus())
	x, store, ts := newSLAFixture(t, f, slaPolicy(), nil)
	fillWindow(ts, 0, sm.IDMACStats, 17, tsdb.FieldThroughputBps, 6, 20e6)

	x.EnforceOnce() // violTicks = 1
	// Updating the policy bumps its version; the hysteresis counter must
	// restart rather than carry over into the new enforcement window.
	p := slaPolicy()
	p.Targets[0].MinThroughputMbps = 50
	if _, err := store.Update("sla-slice1", p); err != nil {
		t.Fatal(err)
	}
	ds := x.EnforceOnce()
	if ds[0].Status != a1.StatusNotApplied || ds[0].Remedied {
		t.Fatalf("post-update tick should be hysteresis-held: %+v", ds[0])
	}
}

// BenchmarkSLAEnforceTick measures one enforcement tick over a fleet of
// policies against an in-process slicing controller and a warm tsdb
// window.
func BenchmarkSLAEnforceTick(b *testing.B) {
	f := &fakeSlicing{status: nvsStatus()}

	store := a1.NewStore()
	const nPolicies = 8
	for i := 0; i < nPolicies; i++ {
		if _, err := store.Create(a1.Policy{
			ID: fmt.Sprintf("p%d", i), TypeID: a1.TypeSliceSLA, Agent: 0,
			WindowMS: 1000,
			Targets:  []a1.SliceTarget{{SliceID: 1, MinThroughputMbps: 45}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	ts := tsdb.New(tsdb.Config{Capacity: 256})
	fillWindow(ts, 0, sm.IDMACStats, 17, tsdb.FieldThroughputBps, 16, 60e6)
	x := NewSLAXApp(SLAConfig{Policies: store, TSDB: ts, Slicing: f})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := x.EnforceOnce(); len(ds) != nPolicies {
			b.Fatalf("decisions %d", len(ds))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(nPolicies*b.N)/b.Elapsed().Seconds(), "policies/s")
}
