// Package tsdb is the SDK's in-memory time-series store for SM report
// history: the storage subsystem between the indication fast path and
// the consumers that need more than the latest report — windowed rates,
// means, and percentiles for control loops, SLA checks, and the
// northbound query API (see docs/OBSERVABILITY.md).
//
// The paper's statistics iApp (§5.3) "saves incoming messages to an
// in-memory data structure"; ctrl.Monitor used to retain only the
// latest report per agent/layer. This package gives it bounded history:
// every numeric field of a decoded MAC/RLC/PDCP report becomes a point
// in a scalar series keyed by (agent, RAN function, UE, field), and raw
// SM payloads are archived per (agent, RAN function) in rings of pooled
// buffers.
//
// # Design
//
//   - Row-striped: series are filed into power-of-two shards by the
//     hash of their row — (agent, RAN function, UE), not the field — so
//     every field of one UE report row lives in one shard. A shard's
//     RWMutex guards only its row index; each series carries its own
//     mutex for ring operations, so appends to different series never
//     serialize on a shard and a long query never blocks ingest on
//     anything but the one series it reads.
//   - Row-indexed: a shard maps each row to an array of its series
//     indexed by Field, so AppendRow finds a whole UE row with one
//     shard read lock and one map probe, then makes one telemetry update
//     and one hook load; Append is its one-field case. Both create
//     series and push samples through the same two functions, so the
//     ring and seal logic exists once.
//   - Bounded: each series is a fixed-capacity ring (Config.Capacity)
//     with optional age-based retention (Config.MaxAge) pruned lazily
//     on append and query. Memory is O(series × capacity), independent
//     of run length.
//   - Allocation-free at steady state: once a row's series exist,
//     AppendRow is one map probe plus two ring writes per field — no
//     allocation (gated by BenchmarkTSDBAppend and
//     BenchmarkTSDBAppendRow in scripts/verify.sh). Raw payload
//     archiving copies into internal/bufpool buffers and recycles the
//     buffer it overwrites, so a steady indication stream archives
//     without touching the heap.
//
// # Ownership
//
// Buffers inside the raw archive belong to the store: AppendRaw copies
// the caller's payload, and readers receive fresh copies (or append
// into a caller-provided slice). A seal encodes into a scratch buffer
// borrowed from a package pool and copies the bits into the chunk: the
// scratch never leaves the encoder, and a chunk owns its bits. On a
// full chain the seal writes into the chunk retention just retired, so
// a compressed series at steady state does not allocate either. See
// docs/PERFORMANCE.md for the full buffer-ownership chain.
package tsdb

import (
	"sync"
	"sync/atomic"
	"time"

	"flexric/internal/bufpool"
)

// Field identifies one scalar column of an SM report. Field names are
// shared across service models — the RAN function ID in the SeriesKey
// disambiguates (MAC TxBits vs RLC TxBytes live under different Fn).
type Field uint8

// Fields covered by the monitoring SMs (MAC/RLC/PDCP stats).
const (
	FieldCQI Field = iota
	FieldMCS
	FieldRBsUsed
	FieldTxBits
	FieldThroughputBps
	FieldTxPackets
	FieldTxBytes
	FieldRxPackets
	FieldRxBytes
	FieldDropPackets
	FieldDropBytes
	FieldBufferBytes
	FieldBufferPkts
	FieldSojournMS
	numFields
)

var fieldNames = [numFields]string{
	FieldCQI:           "cqi",
	FieldMCS:           "mcs",
	FieldRBsUsed:       "rbs_used",
	FieldTxBits:        "tx_bits",
	FieldThroughputBps: "throughput_bps",
	FieldTxPackets:     "tx_packets",
	FieldTxBytes:       "tx_bytes",
	FieldRxPackets:     "rx_packets",
	FieldRxBytes:       "rx_bytes",
	FieldDropPackets:   "drop_packets",
	FieldDropBytes:     "drop_bytes",
	FieldBufferBytes:   "buffer_bytes",
	FieldBufferPkts:    "buffer_pkts",
	FieldSojournMS:     "sojourn_ms",
}

// String returns the field's wire name as used by the HTTP query API.
func (f Field) String() string {
	if int(f) < len(fieldNames) {
		return fieldNames[f]
	}
	return "unknown"
}

// ParseField resolves a wire name to a Field.
func ParseField(s string) (Field, bool) {
	for i, n := range fieldNames {
		if n == s {
			return Field(i), true
		}
	}
	return 0, false
}

// SeriesKey identifies one scalar series: an agent's RAN function, a UE
// within it, and the report field.
type SeriesKey struct {
	Agent uint32
	Fn    uint16
	UE    uint16
	Field Field
}

// Sample is one timestamped point. TS is in nanoseconds; the store does
// not interpret the epoch — wall-clock UnixNano and simulated-time
// nanoseconds both work, as long as one series sticks to one clock.
type Sample struct {
	TS int64   `json:"ts"`
	V  float64 `json:"v"`
}

// Config parameterizes a Store. The zero value takes all defaults.
type Config struct {
	// Capacity is the per-series ring size (count retention). Default
	// 1024 samples; at a 10 ms reporting period that is ~10 s of
	// history per field.
	Capacity int
	// MaxAge drops samples older than now-MaxAge relative to the newest
	// appended timestamp (age retention), pruned lazily. 0 disables.
	MaxAge time.Duration
	// RawCapacity is the per-(agent, fn) raw-payload ring size. Default
	// 64 payloads.
	RawCapacity int
	// Shards is the lock-stripe count, rounded up to a power of two.
	// Default 16.
	Shards int
	// Compress turns the ring into a write head: when it fills (or its
	// oldest sample exceeds MaxAge), it is sealed into an immutable
	// delta-of-delta + XOR compressed chunk (docs/TSDB.md) instead of
	// overwriting the oldest sample, and retention operates on the
	// chunk chain. Off by default — the zero-configuration store keeps
	// the raw overwrite-ring behavior.
	Compress bool
	// MaxChunks bounds the per-series sealed-chunk chain (count
	// retention at chunk granularity, Compress only). The oldest chunk
	// folds into the downsampling tiers when the chain exceeds it.
	// Default 16.
	MaxChunks int
	// Tier1Cap and Tier2Cap bound the per-series 1-second and 1-minute
	// downsampling tier rings, in buckets (Compress only). Defaults
	// 4096 (~68 min at full occupancy) and 2048 (~34 h).
	Tier1Cap int
	Tier2Cap int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Capacity <= 0 {
		out.Capacity = 1024
	}
	if out.RawCapacity <= 0 {
		out.RawCapacity = 64
	}
	if out.Shards <= 0 {
		out.Shards = 16
	}
	if out.MaxChunks <= 0 {
		out.MaxChunks = 16
	}
	if out.Tier1Cap <= 0 {
		out.Tier1Cap = 4096
	}
	if out.Tier2Cap <= 0 {
		out.Tier2Cap = 2048
	}
	n := 1
	for n < out.Shards {
		n <<= 1
	}
	out.Shards = n
	return out
}

// series is one scalar series: a write-head ring plus, under
// Config.Compress, a chain of sealed compressed chunks and a ladder of
// two downsampling tiers. ts and vs are parallel circular buffers: entry
// i (0 ≤ i < n) lives at (head+i) % cap, oldest first. chunks holds
// sealed immutable blocks oldest first; tiers holds the 1 s / 1 min
// summary rings, nil until the first fold (and for good when
// compression is off, unless a snapshot brought tiers).
type series struct {
	mu     sync.Mutex
	ts     []int64
	vs     []float64
	head   int
	n      int
	chunks []*chunk
	tiers  *ladder
	// unordered records that a sample entered the write head below the
	// head's newest timestamp; until the head next empties, queries scan
	// it end to end instead of binary-searching it.
	unordered bool
	// Pad to 128 B, two whole cache lines: in the 112-byte size class a
	// series straddles three lines in two of its four placements, and
	// fed_query's partial windows over ring-mode series read 7 % slower
	// (lat_ms_p50, 9 of 9 pairs).
	_ [16]byte
}

// pushLocked writes (ts, v) after the head's newest sample; the head
// must have room. It keeps unordered current: cleared when the sample
// lands in an empty head, set when it lands below the newest one.
// Caller holds se.mu.
func (se *series) pushLocked(ts int64, v float64) {
	c := len(se.ts)
	i := se.head + se.n // < 2c: a wrap is one subtraction, not a division
	if i >= c {
		i -= c
	}
	if se.n == 0 {
		se.unordered = false
	} else {
		prev := i - 1
		if prev < 0 {
			prev = c - 1
		}
		if ts < se.ts[prev] {
			se.unordered = true
		}
	}
	se.ts[i] = ts
	se.vs[i] = v
	se.n++
}

// chunkSamples is the total sample count across sealed chunks.
func (se *series) chunkSamples() int {
	n := 0
	for _, ck := range se.chunks {
		n += ck.count
	}
	return n
}

// rawKey identifies one raw-payload archive ring.
type rawKey struct {
	Agent uint32
	Fn    uint16
}

// rawSeries archives whole SM payloads in a ring of pooled buffers.
type rawSeries struct {
	mu   sync.Mutex
	ts   []int64
	bufs [][]byte
	head int
	n    int
}

// rowKey identifies one UE report row: every series of one agent's RAN
// function for one UE. It keys a shard's series index and is what
// shardFor hashes.
type rowKey struct {
	Agent uint32
	Fn    uint16
	UE    uint16
}

func (k SeriesKey) row() rowKey { return rowKey{Agent: k.Agent, Fn: k.Fn, UE: k.UE} }

// row holds one report row's series, indexed by Field; an entry stays
// nil until a sample of its field is stored.
type row [numFields]*series

// shard is one lock stripe. mu guards rows, every row's entries and
// nseries (the non-nil entries across rows); each series has its own
// lock for its ring.
type shard struct {
	mu      sync.RWMutex
	rows    map[rowKey]*row
	nseries int
	raw     map[rawKey]*rawSeries
}

// AppendHook observes every stored sample, after it is in the ring. It
// runs on the ingest hot path under the series lock released — the hook
// must not block and must not allocate (the Append ≤1-alloc gate in
// scripts/verify.sh runs with a hook registered). The obs stream hub
// uses it to publish live deltas to control-room clients.
type AppendHook func(k SeriesKey, ts int64, v float64)

// Store is a sharded, bounded, in-memory time-series database.
type Store struct {
	cfg    Config
	maxAge int64 // ns; 0 = disabled
	shards []shard
	mask   uint32
	hook   atomic.Pointer[AppendHook]
}

// New returns a Store with the given configuration.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:    cfg,
		maxAge: int64(cfg.MaxAge),
		shards: make([]shard, cfg.Shards),
		mask:   uint32(cfg.Shards - 1),
	}
	for i := range s.shards {
		s.shards[i].rows = make(map[rowKey]*row)
		s.shards[i].raw = make(map[rawKey]*rawSeries)
	}
	return s
}

// Config returns the store's resolved configuration.
func (s *Store) Config() Config { return s.cfg }

// shardFor returns the stripe of row k: every field of one UE report
// row shares a stripe, so AppendRow finds the whole row with one read
// lock and one map probe.
func (s *Store) shardFor(k rowKey) *shard {
	h := (k.Agent*0x9e3779b1 ^ uint32(k.Fn)<<16 ^ uint32(k.UE)) * 0x85ebca6b
	h ^= h >> 15
	return &s.shards[h&s.mask]
}

func (s *Store) shardForRaw(k rawKey) *shard {
	h := k.Agent*0x9e3779b1 ^ uint32(k.Fn)<<16
	h ^= h >> 13
	return &s.shards[h&s.mask]
}

// Append records one sample: the one-field case of AppendRow. Samples
// are expected in non-decreasing timestamp order per series; an
// out-of-order sample is still stored (rings do not re-sort, and queries
// fall back to scanning the whole write head until it next empties) but
// age pruning keys off the newest TS seen.
// A Field outside the field set is a programming error and panics.
// Steady-state cost: one shard RLock, one row probe, one series lock,
// two ring writes — zero allocations once the series exists.
func (s *Store) Append(k SeriesKey, ts int64, v float64) {
	if k.Field >= numFields {
		panic("tsdb: Append: field outside the field set")
	}
	se := s.lookup(k)
	if se == nil {
		rk := k.row()
		se = s.createSeries(s.shardFor(rk), rk, k.Field)
	}
	if s.pushSample(se, ts, v) {
		tel.overwritten.Inc()
	}
	tel.appends.Inc()
	if h := s.hook.Load(); h != nil {
		(*h)(k, ts, v)
	}
}

// AppendRow records one report row: vs[i] goes to the series k with
// Field = fields[i] (k.Field is ignored), all at timestamp ts. The row's
// series hang off one row entry in one stripe (see shardFor), so one
// read lock and one map probe find them all; each series then takes its
// own lock for its push. The append hook sees the row's samples in field
// order, after all of them are stored. fields and vs must have the same
// length, no more than the number of Fields, and every field must be in
// the field set; anything else is a programming error and panics.
// Steady-state cost per row: one shard RLock, one map probe and one
// series lock per field — zero allocations once the series exist.
func (s *Store) AppendRow(k SeriesKey, fields []Field, ts int64, vs []float64) {
	if len(fields) != len(vs) || len(fields) > int(numFields) {
		panic("tsdb: AppendRow: fields and values differ in length or exceed the field count")
	}
	for _, f := range fields {
		if f >= numFields {
			panic("tsdb: AppendRow: field outside the field set")
		}
	}
	var ses [numFields]*series
	rk := k.row()
	sh := s.shardFor(rk)
	sh.mu.RLock()
	if r := sh.rows[rk]; r != nil {
		for i, f := range fields {
			ses[i] = r[f]
		}
	}
	sh.mu.RUnlock()
	for i, f := range fields {
		if ses[i] == nil {
			ses[i] = s.createSeries(sh, rk, f)
		}
	}
	overwritten := uint64(0)
	for i, se := range ses[:len(fields)] {
		if s.pushSample(se, ts, vs[i]) {
			overwritten++
		}
	}
	tel.appends.Add(uint64(len(fields)))
	if overwritten > 0 {
		tel.overwritten.Add(overwritten)
	}
	if h := s.hook.Load(); h != nil {
		for i, f := range fields {
			k.Field = f
			(*h)(k, ts, vs[i])
		}
	}
}

// createSeries returns the series of field f in row k of sh, creating
// it (and the row) when no writer has yet: the one place series come
// into being on ingest. f must be in the field set.
func (s *Store) createSeries(sh *shard, k rowKey, f Field) *series {
	se := s.newSeries()
	sh.mu.Lock()
	if cur := sh.put(k, f, se); cur != nil {
		se = cur // lost the race; use the winner
	} else {
		tel.series.Add(1)
	}
	sh.mu.Unlock()
	return se
}

// put files se as field f of row k unless that slot is taken, and
// returns the series already there (nil when se was filed). Caller holds
// sh.mu for writing; f must be in the field set.
func (sh *shard) put(k rowKey, f Field, se *series) (cur *series) {
	r := sh.rows[k]
	if r == nil {
		r = new(row)
		sh.rows[k] = r
	}
	if cur = r[f]; cur == nil {
		r[f] = se
		sh.nseries++
	}
	return cur
}

// pushSample stores one sample in se under its lock: age pruning, then
// a seal (compressed) or an overwrite of the oldest sample (ring) when
// the write head is full, then the push. It reports an overwrite, which
// the caller counts (once per row, not once per sample).
func (s *Store) pushSample(se *series, ts int64, v float64) (overwrote bool) {
	se.mu.Lock()
	if s.maxAge > 0 && !s.cfg.Compress {
		// Age pruning first, so that a head which aged out entirely is
		// empty when the new sample lands (and known to be ordered).
		se.pruneLocked(ts - s.maxAge)
	}
	c := len(se.ts)
	if se.n == c {
		if s.cfg.Compress {
			// Write head full: seal it into a compressed chunk. The
			// head restarts empty, so this costs one encoder pass per
			// Capacity appends — amortized, off the 0-alloc fast path.
			s.sealLocked(se, ts)
		} else {
			// Ring full: overwrite the oldest.
			if se.head++; se.head == c {
				se.head = 0
			}
			se.n--
			overwrote = true
		}
	}
	if s.maxAge > 0 && s.cfg.Compress && se.n > 0 && se.ts[se.head] < ts-s.maxAge {
		// Age-based seal: the head's oldest sample left the raw
		// window, so move the whole head into the chunk domain where
		// retention folds it into tiers instead of deleting it.
		s.sealLocked(se, ts)
	}
	se.pushLocked(ts, v)
	se.mu.Unlock()
	return overwrote
}

// SetAppendHook installs (or, with nil, removes) the store's append
// hook. At most one hook is active; installation is atomic, so it may
// race live appends — samples stored while the swap is in flight may
// see either hook.
func (s *Store) SetAppendHook(h AppendHook) {
	if h == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&h)
}

// newSeries allocates an empty series shaped by the store's config: the
// write head only; tiers come with the first fold.
func (s *Store) newSeries() *series {
	return &series{
		ts: make([]int64, s.cfg.Capacity),
		vs: make([]float64, s.cfg.Capacity),
	}
}

// ladderLocked returns the series' tiers, creating them at the store's
// caps on first use. Caller holds se.mu.
func (s *Store) ladderLocked(se *series) *ladder {
	if se.tiers == nil {
		se.tiers = newLadder(s.cfg.Tier1Cap, s.cfg.Tier2Cap)
	}
	return se.tiers
}

// sealLocked compresses the write head into a chunk, appends it to the
// chain, resets the head, and enforces chunk retention. A full chain
// folds its oldest chunk first and the new chunk is written into the
// retired one: the tiers see the same samples in the same order as when
// folding after the append. now is the newest appended timestamp (age
// retention cutoff). Caller holds se.mu.
func (s *Store) sealLocked(se *series, now int64) {
	if se.n == 0 {
		return
	}
	var retired *chunk
	if len(se.chunks) >= s.cfg.MaxChunks {
		retired = s.foldOldestLocked(se)
	}
	start := time.Now() // the seal latency times the encode, not the fold
	var enc chunkEncoder
	c := len(se.ts)
	for i := 0; i < se.n; i++ {
		j := (se.head + i) % c
		enc.add(se.ts[j], se.vs[j])
	}
	ck := enc.seal(retired)
	se.chunks = append(se.chunks, ck)
	se.head, se.n = 0, 0
	tel.chunksSealed.Inc()
	tel.chunkBytes.Add(uint64(ck.sizeBytes()))
	tel.sealLat.Observe(time.Since(start))
	s.retainChunksLocked(se, now)
}

// retainChunksLocked folds chunks that left the raw retention window —
// by chain length (MaxChunks) or age (MaxAge) — into the downsampling
// tiers, oldest first. Caller holds se.mu.
func (s *Store) retainChunksLocked(se *series, now int64) {
	for len(se.chunks) > s.cfg.MaxChunks {
		s.foldOldestLocked(se)
	}
	if s.maxAge > 0 {
		cutoff := now - s.maxAge
		for len(se.chunks) > 0 && se.chunks[0].lastTS < cutoff {
			s.foldOldestLocked(se)
		}
	}
}

// foldOldestLocked decompresses the oldest chunk into tier 1, drops it
// from the chain and returns it: no reader can reach it any more, so a
// seal may reuse it. Caller holds se.mu.
func (s *Store) foldOldestLocked(se *series) *chunk {
	ck := se.chunks[0]
	copy(se.chunks, se.chunks[1:])
	se.chunks[len(se.chunks)-1] = nil
	se.chunks = se.chunks[:len(se.chunks)-1]
	l := s.ladderLocked(se)
	for it := ck.iter(); it.next(); {
		l.foldSample(it.ts, it.v)
	}
	tel.tierFolds.Inc()
	return ck
}

// pruneLocked drops samples with TS < cutoff from the tail. Caller
// holds se.mu.
func (se *series) pruneLocked(cutoff int64) {
	c := len(se.ts)
	for se.n > 0 && se.ts[se.head] < cutoff {
		se.head = (se.head + 1) % c
		se.n--
	}
}

// AppendRaw archives one raw SM payload for (agent, fn). The payload is
// copied into a pooled buffer; the caller keeps ownership of its slice.
// When the ring wraps, the overwritten slot's buffer is recycled, so a
// steady stream archives with zero steady-state allocations.
func (s *Store) AppendRaw(agent uint32, fn uint16, ts int64, payload []byte) {
	k := rawKey{Agent: agent, Fn: fn}
	sh := s.shardForRaw(k)
	sh.mu.RLock()
	rs := sh.raw[k]
	sh.mu.RUnlock()
	if rs == nil {
		rs = &rawSeries{
			ts:   make([]int64, s.cfg.RawCapacity),
			bufs: make([][]byte, s.cfg.RawCapacity),
		}
		sh.mu.Lock()
		if cur := sh.raw[k]; cur != nil {
			rs = cur
		} else {
			sh.raw[k] = rs
		}
		sh.mu.Unlock()
	}
	rs.mu.Lock()
	c := len(rs.ts)
	var i int
	if rs.n == c {
		i = rs.head
		rs.head = (rs.head + 1) % c
		rs.n--
		tel.overwritten.Inc()
	} else {
		i = (rs.head + rs.n) % c
	}
	// Reuse the slot's buffer when it fits; otherwise recycle it and
	// fetch one sized for this payload.
	buf := rs.bufs[i]
	if cap(buf) < len(payload) {
		if buf != nil {
			bufpool.Put(buf)
		}
		buf = bufpool.Get(len(payload))
	}
	buf = buf[:len(payload)]
	copy(buf, payload)
	rs.ts[i] = ts
	rs.bufs[i] = buf
	rs.n++
	rs.mu.Unlock()
	tel.appends.Inc()
	tel.rawBytes.Add(uint64(len(payload)))
}

// LastRaw appends a copy of the newest archived payload for (agent, fn)
// to dst (which may be nil) and returns it with its timestamp. ok is
// false when nothing is archived.
func (s *Store) LastRaw(agent uint32, fn uint16, dst []byte) (payload []byte, ts int64, ok bool) {
	k := rawKey{Agent: agent, Fn: fn}
	sh := s.shardForRaw(k)
	sh.mu.RLock()
	rs := sh.raw[k]
	sh.mu.RUnlock()
	if rs == nil {
		return nil, 0, false
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.n == 0 {
		return nil, 0, false
	}
	i := (rs.head + rs.n - 1) % len(rs.ts)
	return append(dst[:0], rs.bufs[i]...), rs.ts[i], true
}

// RawCount returns how many payloads are archived for (agent, fn).
func (s *Store) RawCount(agent uint32, fn uint16) int {
	k := rawKey{Agent: agent, Fn: fn}
	sh := s.shardForRaw(k)
	sh.mu.RLock()
	rs := sh.raw[k]
	sh.mu.RUnlock()
	if rs == nil {
		return 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.n
}

// EvictAgent removes every series and raw archive belonging to agent,
// returning the archived buffers to the pool. Wired to the server's
// disconnect hook by ctrl.Monitor so reconnect churn cannot leak
// history.
func (s *Store) EvictAgent(agent uint32) {
	var evicted int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, r := range sh.rows {
			if k.Agent != agent {
				continue
			}
			delete(sh.rows, k)
			for _, se := range r {
				if se != nil {
					evicted++
					sh.nseries--
				}
			}
		}
		for k, rs := range sh.raw {
			if k.Agent != agent {
				continue
			}
			delete(sh.raw, k)
			rs.mu.Lock()
			for j, b := range rs.bufs {
				if b != nil {
					bufpool.Put(b)
					rs.bufs[j] = nil
				}
			}
			rs.n = 0
			rs.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	if evicted > 0 {
		tel.series.Add(-evicted)
		tel.evictions.Add(uint64(evicted))
	}
}

// NumSeries returns the live scalar-series count across all shards.
func (s *Store) NumSeries() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.nseries
		sh.mu.RUnlock()
	}
	return n
}
