package ran

// baselineCell is a frozen copy of the per-UE slot loop as it existed
// before the sharded/active-set core: every attached UE is visited on
// every TTI (channel advance, traffic tick, TC pump, EWMA roll-up), the
// scheduler re-filters and re-allocates its working slices each slot,
// and all hot state lives behind a pointer per UE. It exists solely as
// the honest comparator for the scale benchmarks — do not "fix" it —
// and as the deliveredBits-equivalence reference for TC-free workloads
// (EWMA trajectories differ in representation: this loop decays eagerly
// every slot, the sharded core folds idle gaps in closed form).
type baselineCell struct {
	cfg         PHYConfig
	now         int64
	ues         []*baselineUE
	totalTxBits uint64
}

type baselineUE struct {
	rnti    uint16
	mcs     int
	channel ChannelProcess

	tc   *TC
	rlc  *RLCQueue
	pdcp PDCPStats

	sources []TrafficSource

	drainEWMA float64
	thrBps    float64
	ttiBits   int
	ttiBytes  int
	pf        float64

	deliveredBits uint64
}

func newBaselineCell(cfg PHYConfig) (*baselineCell, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &baselineCell{cfg: cfg}, nil
}

func (c *baselineCell) attach(rnti uint16, mcs int) *baselineUE {
	u := &baselineUE{rnti: rnti, mcs: mcs}
	u.tc, u.rlc = newBearer(&u.pdcp, u)
	c.ues = append(c.ues, u)
	return u
}

func (u *baselineUE) addSource(s TrafficSource) { u.sources = append(u.sources, s) }

func (u *baselineUE) packetDone(p *Packet, now int64, delivered bool) {
	sourceDone(u.sources, p, now, delivered)
}

// step is the pre-change Cell.Step body: four full-fleet passes per TTI.
func (c *baselineCell) step(n int) {
	for i := 0; i < n; i++ {
		c.now += TTI
		now := c.now
		for _, u := range c.ues {
			if u.channel != nil {
				u.mcs = u.channel.NextMCS(now)
			}
			for j, s := range u.sources {
				src := int32(j + 1)
				s.Tick(now, func(p *Packet) { p.src = src; u.tc.Submit(p, now) })
			}
		}
		for _, u := range c.ues {
			u.tc.Pump(now, u.rlc.Backlog(), int(u.drainEWMA)+1)
		}
		c.totalTxBits += uint64(c.schedule(now))
		for _, u := range c.ues {
			const alpha = 1.0 / 64
			u.drainEWMA = (1-alpha)*u.drainEWMA + alpha*float64(u.ttiBytes)
			u.thrBps = (1-alpha)*u.thrBps + alpha*float64(u.ttiBits)*1000/TTI
			u.ttiBits = 0
			u.ttiBytes = 0
		}
	}
}

// schedule is the pre-change shared-pool PF path: activeUEs +
// scheduleUEs, including their per-TTI slice allocations.
func (c *baselineCell) schedule(now int64) int {
	var active []*baselineUE
	for _, u := range c.ues {
		if u.rlc.HasData() {
			active = append(active, u)
		}
	}
	numRB := c.cfg.NumRB
	if len(active) == 0 || numRB <= 0 {
		return 0
	}
	const pfAlpha = 1.0 / 128
	totalBits := 0
	remaining := numRB
	sent := make([]int, len(active))
	chunk := numRB / (4 * len(active))
	if chunk < 1 {
		chunk = 1
	}
	live := len(active)
	dead := make([]bool, len(active))
	for remaining > 0 && live > 0 {
		best := -1
		bestMetric := -1.0
		for i, u := range active {
			if dead[i] {
				continue
			}
			inst := float64(BitsPerRB(u.mcs))
			metric := inst / (u.pf + 1e-9)
			if metric > bestMetric {
				bestMetric = metric
				best = i
			}
		}
		if best < 0 {
			break
		}
		rbs := chunk
		if rbs > remaining {
			rbs = remaining
		}
		u := active[best]
		budgetBits := rbs * BitsPerRB(u.mcs)
		usedBytes := u.rlc.Drain(budgetBits/8, now)
		bits := usedBytes * 8
		u.deliveredBits += uint64(bits)
		u.ttiBits += bits
		u.ttiBytes += usedBytes
		totalBits += bits
		sent[best] += bits
		remaining -= rbs
		u.pf += pfAlpha * float64(bits)
		if !u.rlc.HasData() {
			dead[best] = true
			live--
		}
	}
	_ = sent // the old loop allocated (and never read) this; kept for cost fidelity
	for _, u := range active {
		u.pf = (1 - pfAlpha) * u.pf
	}
	return totalBits
}
