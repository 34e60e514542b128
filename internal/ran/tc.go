package ran

import "fmt"

// The TC (traffic control) sublayer sits between SDAP and PDCP in the
// downlink path (Fig. 10). It abstracts flow configuration within the RAN
// the way OpenFlow abstracts flows in a switch (§6.1.1): an OSI classifier
// segregates packets into queues, a scheduler pulls from active queues,
// and a pacer limits submission into the DRB so the RLC buffer never
// bloats. Queues, filters, scheduler and pacer are all reconfigurable at
// runtime through the TC service model.

// TCMatch is a 5-tuple classifier rule; zero-valued fields are wildcards
// except Proto, which has an explicit wildcard flag.
type TCMatch struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            Proto
	MatchProto       bool
}

// Matches reports whether the flow satisfies the rule.
func (m TCMatch) Matches(f FiveTuple) bool {
	if m.SrcIP != 0 && m.SrcIP != f.SrcIP {
		return false
	}
	if m.DstIP != 0 && m.DstIP != f.DstIP {
		return false
	}
	if m.SrcPort != 0 && m.SrcPort != f.SrcPort {
		return false
	}
	if m.DstPort != 0 && m.DstPort != f.DstPort {
		return false
	}
	if m.MatchProto && m.Proto != f.Proto {
		return false
	}
	return true
}

// TCFilter binds a classifier rule to a destination queue.
type TCFilter struct {
	Match TCMatch
	Queue int
}

// PacerKind selects the TC pacing policy.
type PacerKind uint8

// Pacer kinds.
const (
	// PacerNone submits everything immediately (bloats the DRB).
	PacerNone PacerKind = iota
	// PacerBDP is the 5G-BDP pacer [19,21]: it backlogs packets in the
	// TC queues and submits just enough to keep the DRB buffer at a
	// small delay target — full utilization without bloat.
	PacerBDP
)

// TCQueueStats are per-queue counters exported by the TC monitoring SM.
type TCQueueStats struct {
	ID          int
	EnqPackets  uint64
	EnqBytes    uint64
	DeqPackets  uint64
	DeqBytes    uint64
	DropPackets uint64
	BufferBytes int
	BufferPkts  int
	// SojournMS is the sojourn of the most recently dequeued packet.
	SojournMS int64
}

// TCStats aggregates the TC sublayer state.
type TCStats struct {
	Mode    string // "transparent" or "active"
	Pacer   PacerKind
	Queues  []TCQueueStats
	Filters int
}

type tcQueue struct {
	id    int
	pkts  pktRing
	bytes int
	stats TCQueueStats
}

// tcQueueCap bounds a TC queue (bytes); generous, since the pacer is what
// creates backlog here deliberately.
const tcQueueCap = 8 << 20

// enqueue copies p into the queue, or counts a drop and reports false
// when the queue is full.
func (q *tcQueue) enqueue(p *Packet, now int64) bool {
	if q.bytes+p.Size > tcQueueCap {
		q.stats.DropPackets++
		return false
	}
	p.EnqueueTC = now
	q.pkts.push(p)
	q.bytes += p.Size
	q.stats.EnqPackets++
	q.stats.EnqBytes += uint64(p.Size)
	return true
}

// peek returns the head packet, or nil when the queue is empty.
func (q *tcQueue) peek() *Packet { return q.pkts.front() }

// pop dequeues the head packet. The pointer is valid until the next
// enqueue.
func (q *tcQueue) pop(now int64) *Packet {
	p := q.pkts.pop()
	q.bytes -= p.Size
	q.stats.DeqPackets++
	q.stats.DeqBytes += uint64(p.Size)
	q.stats.SojournMS = now - p.EnqueueTC
	return p
}

// TC is the traffic-control sublayer of one UE's downlink path.
type TC struct {
	active  bool
	queues  []*tcQueue
	filters []TCFilter
	pacer   PacerKind
	// pacerTargetMS is the DRB delay target of the BDP pacer.
	pacerTargetMS int64
	rrNext        int // round-robin cursor

	// downstream submits a packet to PDCP/RLC; returns false on drop.
	downstream func(p *Packet, now int64) bool
	// done, if set, learns of every packet a full TC queue drops.
	done packetSink
}

// NewTC returns a TC sublayer in transparent mode feeding downstream.
func NewTC(downstream func(p *Packet, now int64) bool) *TC {
	return &TC{downstream: downstream, pacerTargetMS: 4}
}

// Activate switches from transparent mode to active mode with one default
// FIFO queue (id 0). Idempotent.
func (t *TC) Activate() {
	if t.active {
		return
	}
	t.active = true
	if len(t.queues) == 0 {
		t.queues = []*tcQueue{{id: 0}}
	}
}

// Active reports whether the TC sublayer is classifying traffic.
func (t *TC) Active() bool { return t.active }

// AddQueue creates a new FIFO queue and returns its ID. Activates the
// sublayer if needed (the xApp's "first action" in §6.1.1).
func (t *TC) AddQueue() int {
	t.Activate()
	id := 0
	for _, q := range t.queues {
		if q.id >= id {
			id = q.id + 1
		}
	}
	t.queues = append(t.queues, &tcQueue{id: id})
	return id
}

// RemoveQueue deletes queue id, reassigning its filters to queue 0 and
// flushing its packets downstream. Queue 0 cannot be removed.
func (t *TC) RemoveQueue(id int, now int64) error {
	if id == 0 {
		return fmt.Errorf("ran: default TC queue cannot be removed")
	}
	for i, q := range t.queues {
		if q.id != id {
			continue
		}
		for p := q.peek(); p != nil; p = q.peek() {
			t.downstream(q.pop(now), now)
		}
		t.queues = append(t.queues[:i], t.queues[i+1:]...)
		kept := t.filters[:0]
		for _, f := range t.filters {
			if f.Queue != id {
				kept = append(kept, f)
			}
		}
		t.filters = kept
		return nil
	}
	return fmt.Errorf("ran: no TC queue %d", id)
}

// AddFilter installs a classifier rule (the xApp's "second action").
func (t *TC) AddFilter(f TCFilter) error {
	t.Activate()
	found := false
	for _, q := range t.queues {
		if q.id == f.Queue {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("ran: TC filter targets unknown queue %d", f.Queue)
	}
	t.filters = append(t.filters, f)
	return nil
}

// SetPacer selects the pacing policy (the xApp's "third action"); target
// is the DRB delay target in ms for PacerBDP (0 keeps the current value).
func (t *TC) SetPacer(kind PacerKind, targetMS int64) {
	t.Activate()
	t.pacer = kind
	if targetMS > 0 {
		t.pacerTargetMS = targetMS
	}
}

// classify returns the queue for a flow: first matching filter wins,
// otherwise the default queue 0.
func (t *TC) classify(f FiveTuple) *tcQueue {
	for _, fl := range t.filters {
		if fl.Match.Matches(f) {
			for _, q := range t.queues {
				if q.id == fl.Queue {
					return q
				}
			}
		}
	}
	return t.queues[0]
}

// Submit accepts a packet from SDAP. In transparent mode it forwards
// directly downstream; in active mode it enqueues into the classified
// queue for the scheduler/pacer to pump.
func (t *TC) Submit(p *Packet, now int64) bool {
	if !t.active {
		return t.downstream(p, now)
	}
	if t.classify(p.Flow).enqueue(p, now) {
		return true
	}
	if t.done != nil {
		t.done.packetDone(p, now, false)
	}
	return false
}

// Pump runs one TTI of the TC scheduler: a round-robin pass over active
// queues, bounded by the pacer's allowance. drbBacklog is the current RLC
// buffer occupancy in bytes and drainPerTTI the recent RLC drain rate in
// bytes per TTI (together they define the BDP pacing target).
func (t *TC) Pump(now int64, drbBacklog, drainPerTTI int) {
	if !t.active {
		return
	}
	allowance := 1 << 30 // effectively unbounded
	if t.pacer == PacerBDP {
		// Keep the DRB holding no more than pacerTarget worth of drain:
		// enough to never starve the MAC, too little to bloat.
		target := int(t.pacerTargetMS)*drainPerTTI + 2*1500
		allowance = target - drbBacklog
		if allowance <= 0 {
			return
		}
	}
	// Round-robin over queues, one packet per visit, until the allowance
	// is spent or no queue has data.
	n := len(t.queues)
	idle := 0
	for allowance > 0 && idle < n {
		q := t.queues[t.rrNext%n]
		t.rrNext++
		p := q.peek()
		if p == nil {
			idle++
			continue
		}
		idle = 0
		// Read the size before pop: p points into the queue's ring.
		size := p.Size
		if t.pacer == PacerBDP && size > allowance && drbBacklog > 0 {
			// Next packet exceeds the remaining allowance; try next TTI.
			break
		}
		t.downstream(q.pop(now), now)
		allowance -= size
	}
}

// Backlog returns the bytes currently held in the TC queues (0 in
// transparent mode). The cell's park decision uses it: a UE with TC
// backlog must keep pumping even when the RLC is momentarily empty.
func (t *TC) Backlog() int {
	n := 0
	for _, q := range t.queues {
		n += q.bytes
	}
	return n
}

// Stats snapshots the TC sublayer state.
func (t *TC) Stats() TCStats {
	mode := "transparent"
	if t.active {
		mode = "active"
	}
	s := TCStats{Mode: mode, Pacer: t.pacer, Filters: len(t.filters)}
	for _, q := range t.queues {
		qs := q.stats
		qs.ID = q.id
		qs.BufferBytes = q.bytes
		qs.BufferPkts = q.pkts.n
		s.Queues = append(s.Queues, qs)
	}
	return s
}

// QueueSojournMS returns the head-of-line sojourn of queue id at now, or
// 0 when idle/unknown.
func (t *TC) QueueSojournMS(id int, now int64) int64 {
	for _, q := range t.queues {
		if q.id == id {
			if p := q.peek(); p != nil {
				return now - p.EnqueueTC
			}
			return 0
		}
	}
	return 0
}
