package ran

// PDCPStats are the counters exported by the PDCP monitoring SM. (SDAP
// is accounted with PDCP: the simulator's SDAP is the mapping of flows
// onto the single default DRB, refined by the TC sublayer.)
type PDCPStats struct {
	TxPackets uint64
	TxBytes   uint64
	// SDU sizes are informational for the stats SM payloads.
	LastSDUBytes int
}

// MACUEStats are the per-UE counters exported by the MAC monitoring SM.
type MACUEStats struct {
	RNTI uint16
	CQI  int
	MCS  int
	// RBsUsed is cumulative scheduled resource blocks.
	RBsUsed uint64
	// TxBits is cumulative MAC transport bits delivered.
	TxBits uint64
	// ThroughputBps is an exponentially-averaged delivered rate.
	ThroughputBps float64
}

// UE is one attached user with its downlink bearer path. The cold bearer
// structures (RLC queue, TC sublayer, PDCP counters, traffic sources)
// live here; the per-TTI hot state (MCS, PF average, rate EWMAs, slot
// accumulators) lives in the owning shard's struct-of-arrays buffers,
// addressed by (sh, slot).
type UE struct {
	RNTI uint16
	IMSI string
	// PLMNID is the selected network ("208.95"), used for
	// UE-to-controller and UE-to-slice association.
	PLMNID string
	// SliceID associates the UE to a scheduling slice.
	SliceID uint32

	// channel, when set, drives MCS variation per TTI.
	channel ChannelProcess

	tc   *TC
	rlc  *RLCQueue
	pdcp PDCPStats
	mac  MACUEStats

	sources []TrafficSource

	// sh/slot address the hot state in the shard's SoA buffers; sh is
	// nil after Detach (lastMCS then preserves the final MCS).
	sh      *shard
	slot    int32
	lastMCS int32
	// allIdx is the UE's position in the cell registry (swap-remove).
	allIdx int32

	// emit is the Tick callback, allocated once; tickNow and tickSrc
	// carry the current slot and 1 + the ticking source's index into it
	// so ticking stays allocation-free.
	emit    func(*Packet)
	tickNow int64
	tickSrc int32

	// deliveredBits accumulates for external rate sampling.
	deliveredBits uint64
}

func newUE(rnti uint16, imsi, plmn string, mcs int) *UE {
	ue := &UE{RNTI: rnti, IMSI: imsi, PLMNID: plmn, lastMCS: int32(mcs)}
	ue.tc, ue.rlc = newBearer(&ue.pdcp, ue)
	ue.mac.RNTI = rnti
	ue.emit = func(p *Packet) {
		p.src = ue.tickSrc
		ue.Submit(p, ue.tickNow)
	}
	return ue
}

// newBearer wires one UE's downlink bearer: the TC sublayer feeds PDCP,
// PDCP feeds the RLC queue, and both queues tell done how each packet
// ends.
func newBearer(pdcp *PDCPStats, done packetSink) (*TC, *RLCQueue) {
	rlc := &RLCQueue{done: done}
	tc := NewTC(func(p *Packet, now int64) bool {
		pdcp.TxPackets++
		pdcp.TxBytes += uint64(p.Size)
		pdcp.LastSDUBytes = p.Size
		return rlc.Enqueue(p, now)
	})
	tc.done = done
	return tc, rlc
}

// packetDone implements packetSink for the UE's bearer: it passes the
// end of each packet on to the source that emitted it.
func (u *UE) packetDone(p *Packet, now int64, delivered bool) {
	sourceDone(u.sources, p, now, delivered)
}

// Submit hands a downlink packet to the UE's bearer path (SDAP entry)
// and wakes the UE if it was parked. The bearer copies the packet.
func (u *UE) Submit(p *Packet, now int64) bool {
	ok := u.tc.Submit(p, now)
	if u.sh != nil {
		u.sh.activate(u.slot)
	}
	return ok
}

// AddSource attaches a traffic generator to the UE and wakes it so the
// next TTI evaluates the source's schedule.
func (u *UE) AddSource(s TrafficSource) {
	u.sources = append(u.sources, s)
	if u.sh != nil {
		u.sh.activate(u.slot)
	}
}

// TC exposes the UE's traffic-control sublayer for the TC SM.
func (u *UE) TC() *TC { return u.tc }

// RLC exposes the UE's RLC queue for the RLC SM.
func (u *UE) RLC() *RLCQueue { return u.rlc }

// PDCPStats snapshots the PDCP counters.
func (u *UE) PDCPStats() PDCPStats { return u.pdcp }

// MCS returns the UE's current modulation-and-coding scheme. For a UE
// with a channel process the value is folded to the cell clock first, so
// a parked UE still reads current radio quality (NextMCS catch-up is
// call-cadence independent, so this never perturbs the trajectory).
func (u *UE) MCS() int {
	if u.sh == nil {
		return int(u.lastMCS)
	}
	if u.channel != nil {
		u.sh.mcs[u.slot] = int32(u.channel.NextMCS(u.sh.cell.Now()))
	}
	return int(u.sh.mcs[u.slot])
}

// MACStats snapshots the MAC counters.
func (u *UE) MACStats() MACUEStats {
	s := u.mac
	s.MCS = u.MCS()
	s.CQI = CQIFromMCS(s.MCS)
	if u.sh != nil {
		s.ThroughputBps = u.sh.thrView(u.slot)
	}
	return s
}

// DeliveredBits returns cumulative delivered MAC bits (for throughput
// sampling by experiments).
func (u *UE) DeliveredBits() uint64 { return u.deliveredBits }

// hasData reports whether the UE needs scheduling this TTI.
func (u *UE) hasData() bool { return u.rlc.HasData() }

// tickTraffic generates this TTI's application traffic.
func (u *UE) tickTraffic(now int64) {
	u.tickNow = now
	for i, s := range u.sources {
		u.tickSrc = int32(i + 1)
		s.Tick(now, u.emit)
	}
}

// nextWakeup returns the earliest future TTI (> now) at which any of the
// UE's traffic sources is due, or -1 when none ever will be. Sources
// that don't implement Waker are assumed due every TTI.
func (u *UE) nextWakeup(now int64) int64 {
	min := int64(-1)
	for _, s := range u.sources {
		var at int64
		if w, ok := s.(Waker); ok {
			at = w.NextWakeup(now)
			if at < 0 {
				continue // source finished
			}
			if at <= now {
				at = now + 1
			}
		} else {
			at = now + 1
		}
		if min < 0 || at < min {
			min = at
		}
	}
	return min
}

// drain transmits up to rbs resource blocks worth of data and updates
// MAC accounting. It returns the bits actually sent. A UE may be
// drained several times within one TTI (scheduler chunks); per-TTI rate
// statistics are finalized by shard.postUE.
func (u *UE) drain(rbs int, now int64) int {
	sh, slot := u.sh, u.slot
	budgetBits := rbs * BitsPerRB(int(sh.mcs[slot]))
	usedBytes := u.rlc.Drain(budgetBits/8, now)
	bits := usedBytes * 8
	u.mac.RBsUsed += uint64(rbs)
	u.mac.TxBits += uint64(bits)
	u.deliveredBits += uint64(bits)
	sh.ttiBits[slot] += int32(bits)
	sh.ttiBytes[slot] += int32(usedBytes)
	return bits
}
