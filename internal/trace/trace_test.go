package trace

import (
	"sync"
	"testing"
	"time"
)

// reset restores the package's global state after a test.
func reset(t *testing.T) {
	t.Cleanup(func() {
		SetSampleEvery(0)
		SetCapacity(DefaultCapacity)
	})
	SetCapacity(DefaultCapacity)
}

func TestRootChildLinkage(t *testing.T) {
	reset(t)
	SetSampleEvery(1)

	root := StartRoot("root")
	if !root.Context().Valid() {
		t.Fatal("root must be sampled at rate 1")
	}
	child := StartChild(root.Context(), "child")
	grand := StartChild(child.Context(), "grand")
	grand.End()
	child.End()
	root.End()

	spans := Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, g := byName["root"], byName["child"], byName["grand"]
	if r.TraceID == 0 || c.TraceID != r.TraceID || g.TraceID != r.TraceID {
		t.Errorf("trace IDs must match: %d %d %d", r.TraceID, c.TraceID, g.TraceID)
	}
	if r.Parent != 0 {
		t.Errorf("root parent = %d, want 0", r.Parent)
	}
	if c.Parent != r.SpanID || g.Parent != c.SpanID {
		t.Errorf("parent linkage broken: child.Parent=%d root=%d grand.Parent=%d child=%d",
			c.Parent, r.SpanID, g.Parent, c.SpanID)
	}
	for _, s := range spans {
		if s.DurationNS < 0 || s.StartNS == 0 {
			t.Errorf("span %q has StartNS=%d DurationNS=%d", s.Name, s.StartNS, s.DurationNS)
		}
	}
}

func TestUnsampledIsInert(t *testing.T) {
	reset(t)
	SetSampleEvery(0)

	sp := StartRoot("nope")
	if sp.Context().Valid() {
		t.Fatal("rate 0 must not sample")
	}
	child := StartChild(sp.Context(), "child")
	child.End()
	Record(sp.Context(), "retro", time.Now(), time.Millisecond)
	sp.End()
	if n := len(Snapshot()); n != 0 {
		t.Fatalf("recorded %d spans with sampling off", n)
	}
}

func TestSamplingOneInN(t *testing.T) {
	reset(t)
	SetSampleEvery(4)

	sampled := 0
	for i := 0; i < 40; i++ {
		sp := StartRoot("s")
		if sp.Context().Valid() {
			sampled++
		}
		sp.End()
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 40 at rate 1-in-4, want 10", sampled)
	}
}

func TestRingEviction(t *testing.T) {
	reset(t)
	SetSampleEvery(1)
	SetCapacity(4)

	var last Context
	for i := 0; i < 10; i++ {
		sp := StartRoot("r")
		last = sp.Context()
		sp.End()
	}
	spans := Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring capacity 4", len(spans))
	}
	// Oldest-first order; the newest root must have survived eviction.
	if spans[3].SpanID != last.SpanID {
		t.Errorf("newest span evicted: last=%d got=%d", last.SpanID, spans[3].SpanID)
	}
}

func TestRecordRetroactive(t *testing.T) {
	reset(t)
	SetSampleEvery(1)

	root := StartRoot("root")
	start := time.Now().Add(-5 * time.Millisecond)
	Record(root.Context(), "retro", start, 5*time.Millisecond)
	root.End()

	for _, s := range Snapshot() {
		if s.Name != "retro" {
			continue
		}
		if s.Parent != root.Context().SpanID {
			t.Errorf("retro parent = %d, want %d", s.Parent, root.Context().SpanID)
		}
		if s.DurationNS != int64(5*time.Millisecond) {
			t.Errorf("retro duration = %d", s.DurationNS)
		}
		return
	}
	t.Fatal("retroactive span not recorded")
}

func TestReset(t *testing.T) {
	reset(t)
	SetSampleEvery(1)
	sp := StartRoot("r")
	sp.End()
	Reset()
	if n := len(Snapshot()); n != 0 {
		t.Fatalf("snapshot has %d spans after Reset", n)
	}
}

// TestDisabledPathZeroAlloc is the package-level statement of the
// acceptance criterion enforced in CI by BenchmarkTraceDisabled: with
// sampling off, the full per-message span choreography allocates
// nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	reset(t)
	SetSampleEvery(0)
	t0 := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		sp := StartRoot("agent.indication")
		child := StartChild(sp.Context(), "transport.send")
		child.End()
		Record(sp.Context(), "transport.recv", t0, time.Microsecond)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocates: %.1f allocs/op", allocs)
	}
}

// BenchmarkTraceDisabled exercises the full span choreography of one
// E2 indication — root, child send, retroactive recv, end — with
// sampling off (the production default). scripts/verify.sh gates on
// this reporting 0 allocs/op: unsampled tracing must be free on the
// hot path.
func BenchmarkTraceDisabled(b *testing.B) {
	if SampleEvery() != 0 {
		b.Fatal("trace sampling unexpectedly enabled; BenchmarkTraceDisabled measures the off path")
	}
	t0 := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartRoot("bench.indication")
		child := StartChild(sp.Context(), "bench.send")
		child.End()
		Record(sp.Context(), "bench.recv", t0, time.Microsecond)
		sp.End()
	}
}

// The sampled path must not allocate either: spans are values and the
// ring is pre-allocated.
func TestSampledPathZeroAlloc(t *testing.T) {
	reset(t)
	SetSampleEvery(1)
	allocs := testing.AllocsPerRun(200, func() {
		sp := StartRoot("agent.indication")
		child := StartChild(sp.Context(), "transport.send")
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("sampled trace path allocates: %.1f allocs/op", allocs)
	}
}

// Concurrent producers and snapshot readers: correctness is covered by
// the assertions above; this exists so `go test -race` exercises the
// collector.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	reset(t)
	SetSampleEvery(1)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := StartRoot("w")
				c := StartChild(sp.Context(), "c")
				c.End()
				sp.End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			Snapshot()
		}
	}()
	wg.Wait()
	if n := len(Snapshot()); n == 0 {
		t.Fatal("no spans recorded")
	}
}

// TestTailHook: sampled spans reach the tail hook as they finish, in
// End order, and uninstalling stops delivery without touching the ring.
func TestTailHook(t *testing.T) {
	reset(t)
	SetSampleEvery(1)
	var mu sync.Mutex
	var names []string
	SetTailHook(func(d SpanData) {
		mu.Lock()
		names = append(names, d.Name)
		mu.Unlock()
	})
	t.Cleanup(func() { SetTailHook(nil) })

	root := StartRoot("tail.root")
	child := StartChild(root.Context(), "tail.child")
	child.End()
	root.End()
	SetTailHook(nil)
	late := StartRoot("tail.late")
	late.End()

	mu.Lock()
	defer mu.Unlock()
	if len(names) != 2 || names[0] != "tail.child" || names[1] != "tail.root" {
		t.Fatalf("tail hook saw %v, want [tail.child tail.root]", names)
	}
	// The ring keeps recording independently of the hook.
	if n := len(Snapshot()); n != 3 {
		t.Fatalf("ring has %d spans, want 3", n)
	}
}
