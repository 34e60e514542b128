package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexric/internal/a1"
	"flexric/internal/telemetry"
	"flexric/internal/trace"
	"flexric/internal/tsdb"
)

// The control-room stream hub: fans live controller state out to
// browser/WebSocket clients over four push channels plus a topology feed.
//
//	tsdb       per-sample deltas from the monitoring store, batched per
//	           flush tick and filtered by a series-name glob
//	telemetry  counter/gauge/histogram deltas vs the client's last frame
//	spans      the tail of the trace ring (spans as they finish)
//	topology   agents / subscriptions / slices snapshot, sent on change
//	a1         policy store events (create/update/delete/status), with
//	           the current policy states backfilled on subscribe
//
// Producers never block: the tsdb append hook and trace tail hook write
// into fixed-capacity drop-oldest rings gated on atomic subscriber
// counts (zero work when nobody listens, zero allocations either way),
// and per-client send queues drop their oldest frame when a slow client
// falls behind. A single flush loop at baseTick drains the rings and
// builds frames; clients flush on every Nth tick per their requested
// flush_ms.

// Stream channel names.
const (
	ChanTSDB      = "tsdb"
	ChanTelemetry = "telemetry"
	ChanSpans     = "spans"
	ChanTopology  = "topology"
	ChanA1        = "a1"
)

const (
	// DefaultFlushMS is the hub's base flush tick; per-client flush_ms
	// values are rounded up to a multiple of it.
	DefaultFlushMS = 100

	// clientQueueLen bounds each client's send queue (frames).
	clientQueueLen = 64
	// pendingDeltaCap bounds the hub-wide tsdb delta ring (samples
	// buffered between flush ticks).
	pendingDeltaCap = 16384
	// pendingSpanCap bounds the hub-wide span tail ring.
	pendingSpanCap = 2048
	// pendingA1Cap bounds the hub-wide policy event ring.
	pendingA1Cap = 1024
	// clientAccCap bounds each client's between-flush accumulators.
	clientAccCap = 16384
	// backfillMaxSeries caps how many series one subscribe backfills.
	backfillMaxSeries = 512
	// maxNamedSeries bounds the flush loop's series-name cache; it is
	// reset when full, so a storm of fresh keys cannot grow it.
	maxNamedSeries = 1 << 16
)

var streamTel = struct {
	clients     *telemetry.Gauge
	frames      *telemetry.Counter
	dropped     *telemetry.Counter
	ringDropped *telemetry.Counter
	nonfinite   *telemetry.Counter
	fanout      *telemetry.Histogram
}{
	clients:     telemetry.NewGauge("obs.stream.clients"),
	frames:      telemetry.NewCounter("obs.stream.frames"),
	dropped:     telemetry.NewCounter("obs.stream.dropped_frames"),
	ringDropped: telemetry.NewCounter("obs.stream.ring_dropped"),
	nonfinite:   telemetry.NewCounter("obs.stream.nonfinite"),
	fanout:      telemetry.NewHistogram("obs.stream.fanout"),
}

// delta is one tsdb append captured by the hook. The flush loop fills
// in its series label; the hook leaves it nil.
type delta struct {
	k  tsdb.SeriesKey
	l  *seriesLabel
	ts int64
	v  float64
}

// Hub owns the stream state and the flush loop.
type Hub struct {
	store   *tsdb.Store // nil when no store is mounted
	topoFn  func() any  // nil when no topology source is mounted
	a1Store *a1.Store   // nil when no policy store is mounted

	baseTick time.Duration

	// Subscriber counts gate the producer-side hooks: when zero, the
	// hooks return before taking any lock.
	tsdbSubs atomic.Int64
	spanSubs atomic.Int64
	a1Subs   atomic.Int64

	// Producer rings: the hooks push, tick drains.
	deltas ring[delta]
	spans  ring[trace.SpanData]
	a1Evs  ring[a1.Event]

	cmu     sync.Mutex
	clients map[*streamClient]struct{}
	closed  bool

	stop chan struct{}
	done chan struct{}

	// Flush-loop state: only tick touches it, so it needs no lock.
	names        map[tsdb.SeriesKey]*seriesLabel
	nextID       uint64
	deltaScratch []delta
	spanScratch  []trace.SpanData
	a1Scratch    []a1.Event
	clientsTick  []*streamClient
	order        []uint64
	runs         []seriesRun

	// appendHookFn keeps the installed hook reachable so SetAppendHook
	// uninstall can be matched in tests; trace tail hook is global.
	hookInstalled bool
}

// newHub builds a hub and installs the producer hooks. flushMS <= 0
// selects DefaultFlushMS.
func newHub(store *tsdb.Store, topoFn func() any, a1Store *a1.Store, flushMS int) *Hub {
	if flushMS <= 0 {
		flushMS = DefaultFlushMS
	}
	h := &Hub{
		store:    store,
		topoFn:   topoFn,
		a1Store:  a1Store,
		baseTick: time.Duration(flushMS) * time.Millisecond,
		deltas:   ring[delta]{buf: make([]delta, pendingDeltaCap)},
		spans:    ring[trace.SpanData]{buf: make([]trace.SpanData, pendingSpanCap)},
		a1Evs:    ring[a1.Event]{buf: make([]a1.Event, pendingA1Cap)},
		clients:  make(map[*streamClient]struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if store != nil {
		store.SetAppendHook(h.onAppend)
		h.hookInstalled = true
	}
	if a1Store != nil {
		a1Store.SetHook(h.onA1Event)
	}
	trace.SetTailHook(h.onSpan)
	go h.flushLoop()
	return h
}

// ring is a fixed-capacity queue from a producer hook to the flush
// loop. A full ring drops its oldest item, counted in
// obs.stream.ring_dropped, rather than block or grow; push takes one
// mutex and allocates nothing.
type ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	head, n int // index of the oldest item; items queued
}

func (r *ring[T]) push(v T) {
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		streamTel.ringDropped.Inc()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	r.mu.Unlock()
}

// drain empties the ring into dst[:0], oldest first, and returns it.
func (r *ring[T]) drain(dst []T) []T {
	dst = dst[:0]
	r.mu.Lock()
	for i := range r.n {
		dst = append(dst, r.buf[(r.head+i)%len(r.buf)])
	}
	r.head, r.n = 0, 0
	r.mu.Unlock()
	return dst
}

// onAppend is the tsdb producer hook. It runs on the store's Append
// hot path: no allocations, one mutex, and an atomic early-out when no
// client subscribes to the tsdb channel.
func (h *Hub) onAppend(k tsdb.SeriesKey, ts int64, v float64) {
	if h.tsdbSubs.Load() != 0 {
		h.deltas.push(delta{k: k, ts: ts, v: v})
	}
}

// onA1Event is the policy store hook; same contract as onAppend,
// except events keep flowing with zero subscribers only in the sense
// that the atomic check skips the ring work — the store still fires
// the hook, which is cheap and rare (policy mutations, not samples).
func (h *Hub) onA1Event(e a1.Event) {
	if h.a1Subs.Load() != 0 {
		h.a1Evs.push(e)
	}
}

// onSpan is the trace tail hook; same contract as onAppend.
func (h *Hub) onSpan(d trace.SpanData) {
	if h.spanSubs.Load() != 0 {
		h.spans.push(d)
	}
}

// close detaches every client (each gets a shutdown signal so WS
// handlers can send a going-away close frame), stops the flush loop,
// and uninstalls the producer hooks.
func (h *Hub) close() {
	h.cmu.Lock()
	if h.closed {
		h.cmu.Unlock()
		return
	}
	h.closed = true
	clients := make([]*streamClient, 0, len(h.clients))
	for c := range h.clients {
		clients = append(clients, c)
	}
	h.cmu.Unlock()

	close(h.stop)
	<-h.done
	if h.hookInstalled {
		h.store.SetAppendHook(nil)
	}
	if h.a1Store != nil {
		h.a1Store.SetHook(nil)
	}
	trace.SetTailHook(nil)
	for _, c := range clients {
		h.detach(c)
	}
}

// NumClients reports the attached client count (tests, topology).
func (h *Hub) NumClients() int {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	return len(h.clients)
}

// ---------------------------------------------------------------------
// Clients and subscriptions

// clientSub is one channel subscription of one client.
type clientSub struct {
	glob  string
	every int // flush on every Nth base tick
}

// streamClient is one attached WebSocket consumer. The hub writes
// marshaled frames into q; the transport handler drains it. enqueue
// never blocks: when q is full the oldest frame is dropped.
type streamClient struct {
	h *Hub
	q chan []byte
	// shutdown closes when the hub detaches the client; transports use
	// it to send a close frame and return.
	shutdown chan struct{}
	once     sync.Once

	mu       sync.Mutex
	subs     map[string]*clientSub
	tick     uint64
	acc      []delta // pending tsdb deltas for this client
	accDrop  bool
	frameLen int // length of the last tsdb frame, to presize the next
	spanAcc  []trace.SpanData
	a1Acc    []a1.Event
	prevTel  map[string]float64
	lastTopo []byte
	// closed flips under mu when detach releases the channel counters;
	// a subscribe racing the detach must not resurrect one.
	closed bool
}

// attach registers a new client and enqueues its hello frame. Returns
// nil when the hub is closed.
func (h *Hub) attach() *streamClient {
	c := &streamClient{
		h:        h,
		q:        make(chan []byte, clientQueueLen),
		shutdown: make(chan struct{}),
		subs:     make(map[string]*clientSub),
	}
	h.cmu.Lock()
	if h.closed {
		h.cmu.Unlock()
		return nil
	}
	h.clients[c] = struct{}{}
	n := len(h.clients)
	h.cmu.Unlock()
	streamTel.clients.Set(int64(n))
	c.enqueue(marshalFrame(helloFrame{
		Ch:          "hello",
		Channels:    []string{ChanTSDB, ChanTelemetry, ChanSpans, ChanTopology, ChanA1},
		BaseFlushMS: int(h.baseTick / time.Millisecond),
	}))
	return c
}

// detach removes a client and releases its channel subscriptions.
func (h *Hub) detach(c *streamClient) {
	h.cmu.Lock()
	_, ok := h.clients[c]
	delete(h.clients, c)
	n := len(h.clients)
	h.cmu.Unlock()
	if !ok {
		return
	}
	streamTel.clients.Set(int64(n))
	c.mu.Lock()
	c.closed = true
	for ch := range c.subs {
		h.subCount(ch).Add(-1)
		delete(c.subs, ch)
	}
	c.mu.Unlock()
	c.once.Do(func() { close(c.shutdown) })
}

// subCount returns the gating counter for a channel; channels without
// a producer hook share a dummy counter.
func (h *Hub) subCount(ch string) *atomic.Int64 {
	switch ch {
	case ChanTSDB:
		return &h.tsdbSubs
	case ChanSpans:
		return &h.spanSubs
	case ChanA1:
		return &h.a1Subs
	}
	return &dummyCount
}

var dummyCount atomic.Int64

func (c *streamClient) enqueue(b []byte) {
	for {
		select {
		case c.q <- b:
			streamTel.frames.Inc()
			return
		default:
		}
		// Queue full: drop the oldest frame. The slow client loses
		// history; the producer never blocks.
		select {
		case <-c.q:
			streamTel.dropped.Inc()
		default:
		}
	}
}

// request is one client->server protocol message.
type request struct {
	Op       string `json:"op"` // subscribe | unsubscribe | ping
	Ch       string `json:"ch"`
	Glob     string `json:"glob,omitempty"`
	WindowMS int64  `json:"window_ms,omitempty"`
	FlushMS  int    `json:"flush_ms,omitempty"`
}

type helloFrame struct {
	Ch          string   `json:"ch"`
	Channels    []string `json:"channels"`
	BaseFlushMS int      `json:"base_flush_ms"`
}

type errorFrame struct {
	Ch    string `json:"ch"`
	Error string `json:"error"`
}

func marshalFrame(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Frames are built from plain structs; this cannot fail.
		return []byte(`{"ch":"error","error":"marshal"}`)
	}
	return b
}

// handle processes one protocol request from the client's transport.
func (c *streamClient) handle(raw []byte) {
	var req request
	if err := json.Unmarshal(raw, &req); err != nil {
		c.enqueue(marshalFrame(errorFrame{Ch: "error", Error: "bad request: " + err.Error()}))
		return
	}
	switch req.Op {
	case "ping":
		c.enqueue([]byte(`{"ch":"pong"}`))
	case "subscribe":
		c.subscribe(req)
	case "unsubscribe":
		c.unsubscribe(req.Ch)
	default:
		c.enqueue(marshalFrame(errorFrame{Ch: "error", Error: "unknown op " + strconv.Quote(req.Op)}))
	}
}

func validChannel(ch string) bool {
	switch ch {
	case ChanTSDB, ChanTelemetry, ChanSpans, ChanTopology, ChanA1:
		return true
	}
	return false
}

func (c *streamClient) subscribe(req request) {
	if !validChannel(req.Ch) {
		c.enqueue(marshalFrame(errorFrame{Ch: "error", Error: "unknown channel " + strconv.Quote(req.Ch)}))
		return
	}
	if req.Ch == ChanTSDB && c.h.store == nil {
		c.enqueue(marshalFrame(errorFrame{Ch: "error", Error: "no tsdb store mounted"}))
		return
	}
	if req.Ch == ChanTopology && c.h.topoFn == nil {
		c.enqueue(marshalFrame(errorFrame{Ch: "error", Error: "no topology source mounted"}))
		return
	}
	if req.Ch == ChanA1 && c.h.a1Store == nil {
		c.enqueue(marshalFrame(errorFrame{Ch: "error", Error: "no policy store mounted"}))
		return
	}
	if req.WindowMS > tsdb.MaxMS || int64(req.FlushMS) > tsdb.MaxMS {
		c.enqueue(marshalFrame(errorFrame{Ch: "error", Error: "window_ms and flush_ms must not exceed " + strconv.FormatInt(tsdb.MaxMS, 10)}))
		return
	}
	glob := req.Glob
	if glob == "" {
		glob = "*"
	}
	every := 1
	if req.FlushMS > 0 {
		// Ceiling division without the overflow of adding baseTick-1 to
		// a flush near MaxMS.
		d := time.Duration(req.FlushMS) * time.Millisecond
		every = int(d / c.h.baseTick)
		if d%c.h.baseTick != 0 {
			every++
		}
	}
	sub := &clientSub{glob: glob, every: every}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	_, had := c.subs[req.Ch]
	c.subs[req.Ch] = sub
	if req.Ch == ChanTelemetry {
		c.prevTel = nil // force a full dump on the next flush
	}
	if req.Ch == ChanTopology {
		c.lastTopo = nil // force a snapshot on the next flush
	}
	// The counter update must share the critical section with the map
	// insert: a detach between them would release a count this add then
	// resurrects, leaking the producer gate.
	if !had {
		c.h.subCount(req.Ch).Add(1)
	}
	c.mu.Unlock()
	if req.Ch == ChanTSDB && req.WindowMS > 0 {
		c.backfill(glob, req.WindowMS)
	}
	if req.Ch == ChanA1 {
		c.backfillA1(glob)
	}
}

func (c *streamClient) unsubscribe(ch string) {
	c.mu.Lock()
	_, had := c.subs[ch]
	delete(c.subs, ch)
	if had {
		c.h.subCount(ch).Add(-1)
	}
	c.mu.Unlock()
}

// ---------------------------------------------------------------------
// Series naming and glob matching

// fnAliasNames is the reverse of tsdb.FnAliases, for series-name rendering.
var fnAliasNames = func() map[uint16]string {
	m := make(map[uint16]string, len(tsdb.FnAliases))
	for name, id := range tsdb.FnAliases {
		m[id] = name
	}
	return m
}()

// seriesName renders a series key as the dotted wire name
// <fn>.<agent>.<ue>.<field>, e.g. "mac.0.1.cqi".
func seriesName(k tsdb.SeriesKey) string {
	fn, ok := fnAliasNames[k.Fn]
	if !ok {
		fn = "fn" + strconv.FormatUint(uint64(k.Fn), 10)
	}
	return fn + "." + strconv.FormatUint(uint64(k.Agent), 10) + "." +
		strconv.FormatUint(uint64(k.UE), 10) + "." + k.Field.String()
}

// seriesLabel is a series' wire name, rendered once per key by the
// flush loop. id is unique per label: the hub never reuses one.
type seriesLabel struct {
	id     uint64
	name   string
	quoted []byte // name as encoding/json writes a string
}

// label returns k's series label from the flush loop's cache.
func (h *Hub) label(k tsdb.SeriesKey) *seriesLabel {
	if l := h.names[k]; l != nil {
		return l
	}
	if h.names == nil || len(h.names) >= maxNamedSeries {
		h.names = make(map[tsdb.SeriesKey]*seriesLabel)
	}
	name := seriesName(k)
	l := &seriesLabel{id: h.nextID, name: name, quoted: quoteName(name)}
	h.nextID++
	h.names[k] = l
	return l
}

func quoteName(name string) []byte {
	b, _ := json.Marshal(name) // a string always marshals
	return b
}

// globMatch reports whether s matches pattern, where '*' matches any
// run of characters (including empty and across dots).
func globMatch(pattern, s string) bool {
	// Iterative wildcard match with backtracking to the last '*'.
	p, i := 0, 0
	star, mark := -1, 0
	for i < len(s) {
		switch {
		case p < len(pattern) && pattern[p] == '*':
			star = p
			mark = i
			p++
		case p < len(pattern) && pattern[p] == s[i]:
			p++
			i++
		case star >= 0:
			p = star + 1
			mark++
			i = mark
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '*' {
		p++
	}
	return p == len(pattern)
}

// ---------------------------------------------------------------------
// Frame building

// tsdbWriter appends one tsdb frame, byte for byte what encoding/json
// writes for
//
//	{"ch":"tsdb","series":[{"name":…,"samples":[[ms,v],…]},…],
//	 "backfill":true,"partial":true,"dropped":true}
//
// with "series":null when no series is written and each flag omitted
// when false. A sample's timestamp is Unix *milliseconds*, so it
// survives the float64 JSON round-trip exactly (Unix nanoseconds exceed
// 2^53). Non-finite values have no JSON form: they are skipped and
// counted, and a series left with no samples is omitted.
type tsdbWriter struct {
	b       []byte
	series  int // series written
	mark    int // len(b) before the open series
	samples int // samples in the open series
}

type tsdbFlags struct{ backfill, partial, dropped bool }

func (w *tsdbWriter) begin(b []byte) {
	w.b = append(b[:0], `{"ch":"tsdb","series":`...)
	w.series = 0
}

func (w *tsdbWriter) openSeries(quoted []byte) {
	w.mark = len(w.b)
	w.samples = 0
	if w.series == 0 {
		w.b = append(w.b, '[')
	} else {
		w.b = append(w.b, ',')
	}
	w.b = append(w.b, `{"name":`...)
	w.b = append(w.b, quoted...)
	w.b = append(w.b, `,"samples":[`...)
}

func (w *tsdbWriter) sample(tsNS int64, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		streamTel.nonfinite.Inc()
		return
	}
	if w.samples > 0 {
		w.b = append(w.b, ',')
	}
	w.samples++
	// |ms| < 2^53: encoding/json prints its float64 as this integer.
	w.b = append(w.b, '[')
	w.b = strconv.AppendInt(w.b, tsNS/int64(time.Millisecond), 10)
	w.b = append(w.b, ',')
	w.b = appendJSONFloat(w.b, v)
	w.b = append(w.b, ']')
}

func (w *tsdbWriter) closeSeries() {
	if w.samples == 0 {
		w.b = w.b[:w.mark]
		return
	}
	w.b = append(w.b, "]}"...)
	w.series++
}

func (w *tsdbWriter) finish(f tsdbFlags) []byte {
	if w.series == 0 {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, ']')
	}
	if f.backfill {
		w.b = append(w.b, `,"backfill":true`...)
	}
	if f.partial {
		w.b = append(w.b, `,"partial":true`...)
	}
	if f.dropped {
		w.b = append(w.b, `,"dropped":true`...)
	}
	return append(w.b, '}')
}

// appendJSONFloat appends a finite f as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, and a
// two-digit negative exponent trimmed to one (e-09 → e-9).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// writeLive sorts by label id and accumulator index, which must fit
// the low accIndexBits of one uint64.
const (
	accIndexBits = 16
	accIndexMask = 1<<accIndexBits - 1
)

const _ uint = accIndexMask + 1 - clientAccCap // the accumulator fits

// seriesRun is one label's stretch of Hub.order.
type seriesRun struct {
	l      *seriesLabel
	lo, hi int
}

// writeLive appends acc (at most clientAccCap deltas) as one live
// frame into buf: one series per name, sorted, with its samples in
// arrival order. It reports whether the frame holds any series.
func (h *Hub) writeLive(buf []byte, acc []delta, dropped bool) ([]byte, bool) {
	// One integer sort puts each label's samples together, in arrival
	// order; then the runs are ordered by name.
	h.order = h.order[:0]
	for i, d := range acc {
		h.order = append(h.order, d.l.id<<accIndexBits|uint64(i))
	}
	slices.Sort(h.order)
	h.runs = h.runs[:0]
	for lo := 0; lo < len(h.order); {
		id := h.order[lo] >> accIndexBits
		hi := lo + 1
		for hi < len(h.order) && h.order[hi]>>accIndexBits == id {
			hi++
		}
		h.runs = append(h.runs, seriesRun{l: acc[h.order[lo]&accIndexMask].l, lo: lo, hi: hi})
		lo = hi
	}
	slices.SortFunc(h.runs, func(a, b seriesRun) int { return strings.Compare(a.l.name, b.l.name) })

	var w tsdbWriter
	var merged []uint64
	w.begin(buf)
	for i := 0; i < len(h.runs); {
		idx := h.order[h.runs[i].lo:h.runs[i].hi]
		j := i + 1
		for j < len(h.runs) && h.runs[j].l.name == h.runs[i].l.name {
			j++
		}
		if j > i+1 {
			// Labels that share a name (unknown fields, or one key
			// labelled again after a cache reset) are one series: merge
			// their samples back into arrival order.
			merged = merged[:0]
			for _, r := range h.runs[i:j] {
				for _, o := range h.order[r.lo:r.hi] {
					merged = append(merged, o&accIndexMask)
				}
			}
			slices.Sort(merged)
			idx = merged
		}
		w.openSeries(h.runs[i].l.quoted)
		for _, o := range idx {
			d := &acc[o&accIndexMask]
			w.sample(d.ts, d.v)
		}
		w.closeSeries()
		i = j
	}
	return w.finish(tsdbFlags{dropped: dropped}), w.series > 0
}

type telemetryFrame struct {
	Ch      string             `json:"ch"`
	Full    bool               `json:"full,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

type spanFrameEntry struct {
	TraceID    uint64 `json:"trace_id"`
	SpanID     uint64 `json:"span_id"`
	Parent     uint64 `json:"parent,omitempty"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	DurationNS int64  `json:"duration_ns"`
}

type spansFrame struct {
	Ch    string           `json:"ch"`
	Spans []spanFrameEntry `json:"spans"`
}

type topologyFrame struct {
	Ch       string          `json:"ch"`
	Topology json.RawMessage `json:"topology"`
}

// a1EventWire is one policy event on the wire. Backfill frames carry
// the current states as type "state" events.
type a1EventWire struct {
	Type    string  `json:"type"`
	ID      string  `json:"id"`
	Agent   int     `json:"agent"`
	Status  string  `json:"status"`
	Reason  string  `json:"reason,omitempty"`
	Version uint64  `json:"version"`
	TS      float64 `json:"ts"` // Unix milliseconds
}

type a1Frame struct {
	Ch       string        `json:"ch"`
	Backfill bool          `json:"backfill,omitempty"`
	Events   []a1EventWire `json:"events"`
}

func a1Wire(typ string, tsNS int64, st a1.State) a1EventWire {
	return a1EventWire{
		Type:    typ,
		ID:      st.Policy.ID,
		Agent:   st.Policy.Agent,
		Status:  string(st.Status),
		Reason:  st.Reason,
		Version: st.Policy.Version,
		TS:      float64(tsNS / int64(time.Millisecond)),
	}
}

// backfillA1 sends the current policy states matching glob (on the
// policy ID) so a fresh dashboard starts with the live picture.
func (c *streamClient) backfillA1(glob string) {
	frame := a1Frame{Ch: ChanA1, Backfill: true}
	for _, st := range c.h.a1Store.List() {
		if !globMatch(glob, st.Policy.ID) {
			continue
		}
		frame.Events = append(frame.Events, a1Wire("state", st.UpdatedNS, st))
	}
	c.enqueue(marshalFrame(frame))
}

// backfillSeries is one series of a backfill frame.
type backfillSeries struct {
	name    string
	samples []tsdb.Sample
}

// backfill sends the recent history of every series matching glob as
// one frame, so a fresh dashboard starts with context instead of an
// empty chart.
func (c *streamClient) backfill(glob string, windowMS int64) {
	now := time.Now().UnixNano()
	from := now - windowMS*int64(time.Millisecond)
	var series []backfillSeries
	partial := false
	for _, info := range c.h.store.List(-1, 0) {
		name := seriesName(info.Key)
		if !globMatch(glob, name) {
			continue
		}
		if len(series) == backfillMaxSeries {
			partial = true
			break
		}
		samples := c.h.store.Range(info.Key, from, now, nil)
		if len(samples) == 0 {
			continue
		}
		series = append(series, backfillSeries{name: name, samples: samples})
	}
	c.enqueue(writeBackfill(series, partial))
}

// writeBackfill writes one backfill frame of series, sorted by name.
func writeBackfill(series []backfillSeries, partial bool) []byte {
	slices.SortFunc(series, func(a, b backfillSeries) int { return strings.Compare(a.name, b.name) })
	var w tsdbWriter
	w.begin(nil)
	for _, s := range series {
		w.openSeries(quoteName(s.name))
		for _, p := range s.samples {
			w.sample(p.TS, p.V)
		}
		w.closeSeries()
	}
	return w.finish(tsdbFlags{backfill: true, partial: partial})
}

// flattenTelemetry walks a snapshot tree into dotted-name scalars.
// Histograms contribute .count, .mean_ns and .max_ns leaves.
func flattenTelemetry(s *telemetry.Snapshot, prefix string, out map[string]float64) {
	for name, v := range s.Counters {
		out[prefix+name] = float64(v)
	}
	for name, v := range s.Gauges {
		out[prefix+name] = float64(v)
	}
	for name, h := range s.Histograms {
		out[prefix+name+".count"] = float64(h.Count)
		out[prefix+name+".mean_ns"] = float64(h.Mean())
		out[prefix+name+".max_ns"] = float64(h.Max)
	}
	for seg, child := range s.Children {
		flattenTelemetry(child, prefix+seg+".", out)
	}
}

// ---------------------------------------------------------------------
// Flush loop

func (h *Hub) flushLoop() {
	defer close(h.done)
	tick := time.NewTicker(h.baseTick)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
		h.tick()
	}
}

// tick drains the producer rings and flushes every client due. Only the
// flush loop calls it, or a test whose hub ticker never fires.
func (h *Hub) tick() {
	t0 := time.Now()

	// Drain the producer rings into scratch buffers.
	h.deltaScratch = h.deltas.drain(h.deltaScratch)
	if h.tsdbSubs.Load() == 0 {
		// Nobody streams series: let go of the names and the scratch.
		h.names, h.deltaScratch = nil, nil
		h.order, h.runs = nil, nil
	}
	for i := range h.deltaScratch {
		h.deltaScratch[i].l = h.label(h.deltaScratch[i].k)
	}

	h.spanScratch = h.spans.drain(h.spanScratch)
	h.a1Scratch = h.a1Evs.drain(h.a1Scratch)

	h.cmu.Lock()
	h.clientsTick = h.clientsTick[:0]
	for c := range h.clients {
		h.clientsTick = append(h.clientsTick, c)
	}
	h.cmu.Unlock()

	// Per-tick lazies, shared across clients due this tick.
	var telFlat map[string]float64
	var topoBytes []byte
	for _, c := range h.clientsTick {
		c.flushTick(&telFlat, &topoBytes)
	}
	clear(h.clientsTick) // do not pin detached clients until the next tick
	streamTel.fanout.Observe(time.Since(t0))
}

// flushTick accumulates this tick's data into the client and emits
// frames for every subscription due on this tick.
func (c *streamClient) flushTick(telFlat *map[string]float64, topoBytes *[]byte) {
	h := c.h
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++

	// Accumulate into per-client buffers (bounded, drop-oldest).
	if sub := c.subs[ChanTSDB]; sub != nil {
		for _, d := range h.deltaScratch {
			if sub.glob == "*" || globMatch(sub.glob, d.l.name) {
				c.acc = append(c.acc, d)
			}
		}
		if n := len(c.acc) - clientAccCap; n > 0 {
			c.acc = c.acc[:copy(c.acc, c.acc[n:])]
			c.accDrop = true
			streamTel.ringDropped.Add(uint64(n))
		}
	}
	if c.subs[ChanSpans] != nil {
		c.spanAcc = append(c.spanAcc, h.spanScratch...)
		if len(c.spanAcc) > clientAccCap {
			c.spanAcc = c.spanAcc[len(c.spanAcc)-clientAccCap:]
		}
	}
	if c.subs[ChanA1] != nil {
		c.a1Acc = append(c.a1Acc, h.a1Scratch...)
		if len(c.a1Acc) > clientAccCap {
			c.a1Acc = c.a1Acc[len(c.a1Acc)-clientAccCap:]
		}
	}

	if sub := c.subs[ChanTSDB]; sub != nil && c.tick%uint64(sub.every) == 0 && len(c.acc) > 0 {
		b, ok := h.writeLive(make([]byte, 0, c.frameLen+c.frameLen/8), c.acc, c.accDrop)
		c.acc = c.acc[:0]
		c.accDrop = false
		if ok {
			c.frameLen = len(b)
			c.enqueue(b)
		}
	}

	if sub := c.subs[ChanTelemetry]; sub != nil && c.tick%uint64(sub.every) == 0 {
		if *telFlat == nil {
			m := make(map[string]float64)
			flattenTelemetry(telemetry.TakeSnapshot(), "", m)
			*telFlat = m
		}
		full := c.prevTel == nil
		frame := telemetryFrame{Ch: ChanTelemetry, Full: full, Metrics: make(map[string]float64)}
		for name, v := range *telFlat {
			if !globMatch(sub.glob, name) {
				continue
			}
			if full || c.prevTel[name] != v {
				frame.Metrics[name] = v
			}
		}
		if c.prevTel == nil {
			c.prevTel = make(map[string]float64, len(*telFlat))
		}
		for name, v := range *telFlat {
			c.prevTel[name] = v
		}
		if full || len(frame.Metrics) > 0 {
			c.enqueue(marshalFrame(frame))
		}
	}

	if sub := c.subs[ChanSpans]; sub != nil && c.tick%uint64(sub.every) == 0 && len(c.spanAcc) > 0 {
		frame := spansFrame{Ch: ChanSpans}
		for _, d := range c.spanAcc {
			if !globMatch(sub.glob, d.Name) {
				continue
			}
			frame.Spans = append(frame.Spans, spanFrameEntry{
				TraceID: d.TraceID, SpanID: d.SpanID, Parent: d.Parent,
				Name: d.Name, StartNS: d.StartNS, DurationNS: d.DurationNS,
			})
		}
		c.spanAcc = c.spanAcc[:0]
		if len(frame.Spans) > 0 {
			c.enqueue(marshalFrame(frame))
		}
	}

	if sub := c.subs[ChanA1]; sub != nil && c.tick%uint64(sub.every) == 0 && len(c.a1Acc) > 0 {
		frame := a1Frame{Ch: ChanA1}
		for _, e := range c.a1Acc {
			if !globMatch(sub.glob, e.State.Policy.ID) {
				continue
			}
			frame.Events = append(frame.Events, a1Wire(string(e.Type), e.TS, e.State))
		}
		c.a1Acc = c.a1Acc[:0]
		if len(frame.Events) > 0 {
			c.enqueue(marshalFrame(frame))
		}
	}

	if sub := c.subs[ChanTopology]; sub != nil && c.tick%uint64(sub.every) == 0 {
		if *topoBytes == nil && c.h.topoFn != nil {
			b, err := json.Marshal(c.h.topoFn())
			if err == nil {
				*topoBytes = b
			}
		}
		if *topoBytes != nil && !bytes.Equal(*topoBytes, c.lastTopo) {
			c.lastTopo = append(c.lastTopo[:0], *topoBytes...)
			c.enqueue(marshalFrame(topologyFrame{Ch: ChanTopology, Topology: *topoBytes}))
		}
	}
}
