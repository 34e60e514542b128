package a1

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func validPolicy() Policy {
	return Policy{
		ID:       "sla-slice1",
		TypeID:   TypeSliceSLA,
		Agent:    0,
		Priority: 10,
		WindowMS: 400,
		Targets:  []SliceTarget{{SliceID: 1, MinThroughputMbps: 45}},
	}
}

func TestValidateOK(t *testing.T) {
	p := validPolicy()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Policy)
		want   string // substring of the issue list
	}{
		{"empty id", func(p *Policy) { p.ID = "" }, "id: required"},
		{"bad id chars", func(p *Policy) { p.ID = "has space" }, "must match"},
		{"long id", func(p *Policy) { p.ID = strings.Repeat("x", 65) }, "longer than"},
		{"unknown type", func(p *Policy) { p.TypeID = "nope_v9" }, "unknown type"},
		{"negative agent", func(p *Policy) { p.Agent = -1 }, "agent"},
		{"priority range", func(p *Policy) { p.Priority = 101 }, "priority"},
		{"window too small", func(p *Policy) { p.WindowMS = 10 }, "windowMs"},
		{"window too large", func(p *Policy) { p.WindowMS = 10_000_000 }, "windowMs"},
		{"negative cooldown", func(p *Policy) { p.CooldownMS = -1 }, "cooldownMs"},
		{"no targets", func(p *Policy) { p.Targets = nil }, "at least one required"},
		{"too many targets", func(p *Policy) {
			p.Targets = nil
			for i := 0; i < 33; i++ {
				p.Targets = append(p.Targets, SliceTarget{SliceID: uint32(i), MaxLatencyMS: 1})
			}
		}, "more than 32"},
		{"duplicate slice", func(p *Policy) {
			p.Targets = append(p.Targets, SliceTarget{SliceID: 1, MaxLatencyMS: 5})
		}, "duplicate slice"},
		{"empty target", func(p *Policy) {
			p.Targets = []SliceTarget{{SliceID: 2}}
		}, "at least one of"},
		{"nan throughput", func(p *Policy) {
			p.Targets = []SliceTarget{{SliceID: 1, MinThroughputMbps: math.NaN()}}
		}, "minThroughputMbps"},
		{"inf latency", func(p *Policy) {
			p.Targets = []SliceTarget{{SliceID: 1, MaxLatencyMS: math.Inf(1)}}
		}, "maxLatencyMs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validPolicy()
			tc.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("mutation %q accepted", tc.name)
			}
			var ve *ValidationError
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if ok := errorsAs(err, &ve); !ok {
				t.Fatalf("error is %T, want *ValidationError", err)
			}
		})
	}
}

// errorsAs avoids importing errors for one call in a test file.
func errorsAs(err error, target **ValidationError) bool {
	ve, ok := err.(*ValidationError)
	if ok {
		*target = ve
	}
	return ok
}

func TestValidateAggregatesIssues(t *testing.T) {
	p := Policy{TypeID: "bogus", WindowMS: 1}
	err := p.Validate()
	if err == nil {
		t.Fatal("invalid policy accepted")
	}
	ve := err.(*ValidationError)
	if len(ve.Issues) < 3 {
		t.Fatalf("want >=3 aggregated issues, got %d: %v", len(ve.Issues), ve.Issues)
	}
}

func TestStoreCRUDAndVersions(t *testing.T) {
	s := NewStore()
	st, err := s.Create(validPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy.Version != 1 || st.Status != StatusNotApplied {
		t.Fatalf("created state %+v", st)
	}
	if _, err := s.Create(validPolicy()); err != ErrExists {
		t.Fatalf("duplicate create: %v", err)
	}
	p2 := validPolicy()
	p2.ID = "other"
	if st2, err := s.Create(p2); err != nil || st2.Policy.Version != 2 {
		t.Fatalf("second create: %v %+v", err, st2)
	}
	up := validPolicy()
	up.Priority = 99
	st, err = s.Update("sla-slice1", up)
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy.Version != 3 || st.Policy.Priority != 99 {
		t.Fatalf("updated state %+v", st)
	}
	if _, err := s.Update("ghost", up); err != ErrNotFound {
		t.Fatalf("update missing: %v", err)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d", got)
	}
	if list := s.List(); len(list) != 2 || list[0].Policy.ID != "other" {
		t.Fatalf("List order: %+v", list)
	}
	if _, ok := s.Delete("other"); !ok {
		t.Fatal("delete failed")
	}
	if _, ok := s.Delete("other"); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestStoreStatusTransitions(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(validPolicy()); err != nil {
		t.Fatal(err)
	}
	st, changed, ok := s.SetStatus("sla-slice1", StatusEnforced, "targets met")
	if !ok || !changed || st.Transitions != 1 {
		t.Fatalf("first transition: changed=%v %+v", changed, st)
	}
	// Same status again: reason refresh only, no transition.
	st, changed, ok = s.SetStatus("sla-slice1", StatusEnforced, "still met")
	if !ok || changed || st.Transitions != 1 || st.Reason != "still met" {
		t.Fatalf("refresh: changed=%v %+v", changed, st)
	}
	st, changed, _ = s.SetStatus("sla-slice1", StatusViolated, "slice 1 below target")
	if !changed || st.Transitions != 2 || st.Status != StatusViolated {
		t.Fatalf("violation transition: %+v", st)
	}
	if _, _, ok := s.SetStatus("ghost", StatusEnforced, ""); ok {
		t.Fatal("SetStatus on missing policy reported ok")
	}
	sum := s.Summary()
	if sum.Policies != 1 || sum.Violated != 1 || sum.Enforced != 0 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestStoreActiveForOrdering(t *testing.T) {
	s := NewStore()
	for i, pr := range []int{5, 20, 20, 1} {
		p := validPolicy()
		p.ID = fmt.Sprintf("p%d", i)
		p.Priority = pr
		p.Agent = 7
		if _, err := s.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	other := validPolicy()
	other.ID = "elsewhere"
	other.Agent = 9
	if _, err := s.Create(other); err != nil {
		t.Fatal(err)
	}
	got := s.ActiveFor(7)
	if len(got) != 4 {
		t.Fatalf("ActiveFor(7) = %d policies", len(got))
	}
	wantOrder := []string{"p1", "p2", "p0", "p3"} // priority desc, ID ties asc
	for i, w := range wantOrder {
		if got[i].Policy.ID != w {
			t.Fatalf("order[%d] = %s, want %s (full: %+v)", i, got[i].Policy.ID, w, got)
		}
	}
	if agents := s.Agents(); len(agents) != 2 || agents[0] != 7 || agents[1] != 9 {
		t.Fatalf("Agents() = %v", agents)
	}
}

func TestStoreHookEvents(t *testing.T) {
	s := NewStore()
	var mu sync.Mutex
	var evs []Event
	s.SetHook(func(e Event) {
		mu.Lock()
		evs = append(evs, e)
		mu.Unlock()
	})
	if _, err := s.Create(validPolicy()); err != nil {
		t.Fatal(err)
	}
	s.SetStatus("sla-slice1", StatusViolated, "below target")
	s.SetStatus("sla-slice1", StatusViolated, "still below") // no event
	if _, err := s.Update("sla-slice1", validPolicy()); err != nil {
		t.Fatal(err)
	}
	s.Delete("sla-slice1")
	mu.Lock()
	defer mu.Unlock()
	want := []EventType{EventCreated, EventStatus, EventUpdated, EventDeleted}
	if len(evs) != len(want) {
		t.Fatalf("events = %d, want %d (%+v)", len(evs), len(want), evs)
	}
	for i, w := range want {
		if evs[i].Type != w {
			t.Fatalf("event[%d] = %s, want %s", i, evs[i].Type, w)
		}
		if evs[i].TS == 0 || evs[i].State.Policy.ID != "sla-slice1" {
			t.Fatalf("event[%d] incomplete: %+v", i, evs[i])
		}
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	s.SetHook(func(Event) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := validPolicy()
				p.ID = fmt.Sprintf("g%d-i%d", g, i%10)
				p.Agent = g
				if _, err := s.Create(p); err != nil {
					s.SetStatus(p.ID, StatusEnforced, "met")
					s.Update(p.ID, p)
				}
				s.List()
				s.ActiveFor(g)
				s.Summary()
				if i%7 == 0 {
					s.Delete(p.ID)
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkA1PolicyValidate(b *testing.B) {
	p := validPolicy()
	p.Targets = append(p.Targets,
		SliceTarget{SliceID: 2, MaxLatencyMS: 20},
		SliceTarget{SliceID: 3, MinThroughputMbps: 10, MaxLatencyMS: 30})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA1StoreSetStatus(b *testing.B) {
	s := NewStore()
	if _, err := s.Create(validPolicy()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate so every other call is a real transition.
		if i%2 == 0 {
			s.SetStatus("sla-slice1", StatusEnforced, "met")
		} else {
			s.SetStatus("sla-slice1", StatusViolated, "missed")
		}
	}
}
