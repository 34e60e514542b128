package ran

// RLCQueue models one RLC entity's downlink buffer for a data radio
// bearer (DRB). The paper (§6.1.1): "the RLC sublayer is provided with
// large buffers to absorb the brusque changes that the radio channel may
// suffer" — which is exactly what makes it the bufferbloat locus when a
// loss-based congestion controller shares it.
//
// The queue is byte-bounded drop-tail. Packets are drained in FIFO order
// by the MAC; partial packets carry over between TTIs (segmentation).
type RLCQueue struct {
	// MaxBytes bounds the buffer; 0 means the package default.
	MaxBytes int

	pkts    pktRing
	headRem int // unsent bytes remaining of the head packet
	bytes   int // total queued bytes

	// done, if set, learns how each packet ends: delivered by Drain or
	// dropped by Enqueue.
	done packetSink

	stats RLCStats
}

// DefaultRLCBufBytes reflects the "large buffers" of production RLC
// configurations (3 MB ≈ hundreds of ms of backlog at tens of Mbps).
const DefaultRLCBufBytes = 3 << 20

// RLCStats are the counters exported by the RLC monitoring SM.
type RLCStats struct {
	TxPackets   uint64 // packets fully transmitted
	TxBytes     uint64
	RxPackets   uint64 // packets accepted into the buffer
	RxBytes     uint64
	DropPackets uint64 // drop-tail losses
	DropBytes   uint64
	BufferBytes int   // current backlog
	BufferPkts  int   // current queued packets
	SojournMS   int64 // sojourn time of the most recently dequeued packet
}

func (q *RLCQueue) limit() int {
	if q.MaxBytes > 0 {
		return q.MaxBytes
	}
	return DefaultRLCBufBytes
}

// Enqueue copies p into the buffer at time now, or drops it when the
// buffer is full. It reports whether the packet was accepted.
func (q *RLCQueue) Enqueue(p *Packet, now int64) bool {
	if q.bytes+p.Size > q.limit() {
		q.stats.DropPackets++
		q.stats.DropBytes += uint64(p.Size)
		if q.done != nil {
			q.done.packetDone(p, now, false)
		}
		return false
	}
	p.EnqueueRLC = now
	q.pkts.push(p)
	q.bytes += p.Size
	q.stats.RxPackets++
	q.stats.RxBytes += uint64(p.Size)
	return true
}

// Drain transmits up to budget bytes at time now, telling done of every
// packet whose last byte leaves the buffer. It returns the bytes
// actually consumed.
func (q *RLCQueue) Drain(budget int, now int64) int {
	used := 0
	for budget > 0 && q.pkts.n > 0 {
		rem := q.headRem
		if rem == 0 {
			rem = q.pkts.front().Size
		}
		take := rem
		if take > budget {
			take = budget
		}
		budget -= take
		used += take
		rem -= take
		if rem > 0 {
			q.headRem = rem
			break
		}
		// Packet fully transmitted.
		q.headRem = 0
		p := q.pkts.pop()
		q.bytes -= p.Size
		q.stats.TxPackets++
		q.stats.TxBytes += uint64(p.Size)
		q.stats.SojournMS = now - p.EnqueueRLC
		if q.done != nil {
			q.done.packetDone(p, now, true)
		}
	}
	return used
}

// Backlog returns the queued bytes.
func (q *RLCQueue) Backlog() int { return q.bytes }

// HasData reports whether any bytes remain to transmit.
func (q *RLCQueue) HasData() bool { return q.bytes > 0 }

// OldestSojournMS returns how long the head-of-line packet has been
// queued, or 0 when empty. This is the live sojourn signal the TC xApp
// monitors in Fig. 11.
func (q *RLCQueue) OldestSojournMS(now int64) int64 {
	if p := q.pkts.front(); p != nil {
		return now - p.EnqueueRLC
	}
	return 0
}

// Stats returns a snapshot of the RLC counters.
func (q *RLCQueue) Stats() RLCStats {
	s := q.stats
	s.BufferBytes = q.bytes
	s.BufferPkts = q.pkts.n
	return s
}
