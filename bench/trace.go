package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The harness's own spans: one around every call it makes into a layer
// (Fleet.Step, sm.TickAll, HTTP round trips, ReadMessage, ...), held in
// memory and written to bench/out/trace-<workload>.json when the traced
// run ends. Spans inside the program are read through its public trace
// package as they are; the harness adds none there.

// spanRec is one harness span. Times are nanoseconds since the trace
// epoch; an event (due time, visibility) has Start == End.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused it, -1 for none
	Round  int64  `json:"round"`  // round, cycle or query id, -1 for none
}

// tracer records harness spans. A nil tracer, and one that is not
// switched on, records nothing, so untraced runs pay one branch.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
	// program holds the program's own spans of the traced phase, for
	// the trace file.
	program []programSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its index, -1 when not recording.
func (t *tracer) begin(name string, round int64) int { return t.beginChild(-1, name, round) }

func (t *tracer) beginChild(parent int, name string, round int64) int {
	if !t.active() {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{Name: name, Start: now, End: -1, Parent: parent, Round: round})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 || t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// mark records an event at the given time.
func (t *tracer) mark(name string, round int64, at time.Time) {
	if !t.active() {
		return
	}
	ns := int64(at.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{Name: name, Start: ns, End: ns, Parent: -1, Round: round})
	t.mu.Unlock()
}

// durations returns the length in ns of every finished span of a name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// byRound returns, for spans of a name, round → the span.
func (t *tracer) byRound(name string) map[int64]spanRec {
	out := map[int64]spanRec{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out[s.Round] = s
		}
	}
	return out
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	EpochNS  int64  `json:"epoch_unix_ns"`
	// Spans are the harness's spans, in the order they were opened.
	Spans []spanRec `json:"spans"`
	// Program holds the spans the program recorded itself (its trace
	// package), newest last, as far as its ring kept them.
	Program []programSpan `json:"program_spans"`
}

type programSpan struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	Dur    int64  `json:"duration_ns"`
}

// outDir is where traced runs leave their trace files.
const outDir = "bench/out"

func (t *tracer) write(workload string) error {
	if t == nil {
		return nil
	}
	dir := outDir
	if _, err := os.Stat("bench"); err != nil {
		dir = "out" // run from inside bench/ (go test)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	tf := traceFile{Workload: workload, EpochNS: t.epoch.UnixNano(), Spans: t.spans, Program: t.program}
	b, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
