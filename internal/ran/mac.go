package ran

import (
	"fmt"

	"flexric/internal/nvs"
)

// The MAC scheduler implements the two-level structure of the slicing
// control SM (Fig. 12): "Upon the MAC scheduling phase, first the slice
// scheduler distributes resources among slices, and for each selected
// slice, the corresponding UE scheduler distributes resources among the
// UEs."

// SliceMode selects the slice-scheduler algorithm.
type SliceMode uint8

// Slice scheduler algorithms.
const (
	// SliceNone disables slicing: all UEs share one scheduler pool.
	SliceNone SliceMode = iota
	// SliceNVS uses the NVS algorithm (isolation + sharing).
	SliceNVS
)

func (m SliceMode) String() string {
	if m == SliceNVS {
		return "nvs"
	}
	return "none"
}

// UESched selects the per-slice user scheduler.
type UESched uint8

// User scheduler algorithms.
const (
	// SchedPF is proportional fair.
	SchedPF UESched = iota
	// SchedRR is round robin.
	SchedRR
)

// ParseUESched maps SM string names to scheduler constants.
func ParseUESched(s string) (UESched, error) {
	switch s {
	case "", "pf":
		return SchedPF, nil
	case "rr":
		return SchedRR, nil
	default:
		return 0, fmt.Errorf("ran: unknown UE scheduler %q", s)
	}
}

type mac struct {
	mode    SliceMode
	nvs     *nvs.Scheduler
	ueSched map[uint32]UESched // per-slice user scheduler
	rrCur   int                // round-robin rotation cursor

	// Per-TTI scratch, reused across slots to keep scheduling
	// allocation-free.
	dead        []bool
	heap        pfHeap
	members     []*UE
	sliceActive map[uint32]bool
}

func newMAC() *mac {
	return &mac{
		nvs:         nvs.NewScheduler(),
		ueSched:     make(map[uint32]UESched),
		sliceActive: make(map[uint32]bool),
	}
}

// configureSlices installs the NVS slice set and per-slice UE schedulers.
func (m *mac) configureSlices(cfgs []nvs.Config) error {
	if err := m.nvs.Admit(cfgs); err != nil {
		return err
	}
	m.mode = SliceNVS
	for _, c := range cfgs {
		sched, err := ParseUESched(c.UESched)
		if err != nil {
			return err
		}
		m.ueSched[c.ID] = sched
	}
	return nil
}

// disableSlicing returns to the shared-pool scheduler.
func (m *mac) disableSlicing() { m.mode = SliceNone }

// schedule runs one TTI: selects UEs, drains their RLC queues against the
// cell capacity, and returns total transmitted bits. cands are the
// backlogged UEs in canonical (shard, slot) order — the cell pre-filters
// on hasData so idle UEs never reach the scheduler.
func (m *mac) schedule(cands []*UE, numRB int, now int64) int {
	switch m.mode {
	case SliceNVS:
		return m.scheduleNVS(cands, numRB, now)
	default:
		return m.scheduleUEs(cands, SchedPF, numRB, now)
	}
}

func (m *mac) scheduleNVS(cands []*UE, numRB int, now int64) int {
	// Build slice activity from the backlogged candidates.
	clear(m.sliceActive)
	for _, u := range cands {
		m.sliceActive[u.SliceID] = true
	}
	id, ok := m.nvs.Pick(m.sliceActive)
	if !ok {
		m.nvs.Update(0, false, 0)
		return 0
	}
	m.members = m.members[:0]
	for _, u := range cands {
		if u.SliceID == id {
			m.members = append(m.members, u)
		}
	}
	bits := m.scheduleUEs(m.members, m.ueSched[id], numRB, now)
	// Achieved rate over the interval in bits/s.
	m.nvs.Update(id, true, float64(bits)*1000/TTI)
	return bits
}

// pfAlpha is the proportional-fair averaging factor per TTI.
const pfAlpha = 1.0 / 128

// scheduleUEs distributes numRB blocks among the given UEs using the
// selected policy and drains their queues. Work-conserving: blocks
// unused by a drained UE are offered to the others.
func (m *mac) scheduleUEs(ues []*UE, policy UESched, numRB int, now int64) int {
	if len(ues) == 0 || numRB <= 0 {
		return 0
	}
	// Allocate in chunks to bound per-TTI work for large bandwidths.
	chunk := numRB / (4 * len(ues))
	if chunk < 1 {
		chunk = 1
	}
	var totalBits int
	if policy == SchedRR {
		totalBits = m.scheduleRR(ues, chunk, numRB, now)
	} else {
		totalBits = m.schedulePF(ues, chunk, numRB, now)
	}
	// Finalize PF averages: decay everyone, credit what they received.
	for _, u := range ues {
		u.sh.pf[u.slot] = (1 - pfAlpha) * u.sh.pf[u.slot]
	}
	return totalBits
}

// serve drains up to rbs blocks from u and tentatively raises its PF
// average, so subsequent chunks in this TTI spread across UEs. It
// returns the bits sent.
func serve(u *UE, rbs int, now int64) int {
	bits := u.drain(rbs, now)
	u.sh.pf[u.slot] += pfAlpha * float64(bits)
	return bits
}

// scheduleRR hands out chunks round robin over the UEs that still have
// data.
func (m *mac) scheduleRR(ues []*UE, chunk, remaining int, now int64) int {
	totalBits := 0
	live := len(ues)
	if cap(m.dead) < len(ues) {
		m.dead = make([]bool, len(ues))
	}
	dead := m.dead[:len(ues)]
	for i := range dead {
		dead[i] = false
	}
	for remaining > 0 && live > 0 {
		best := -1
		for i := 0; i < len(ues); i++ {
			cand := (m.rrCur + i) % len(ues)
			if !dead[cand] {
				best = cand
				m.rrCur = cand + 1
				break
			}
		}
		if best < 0 {
			break
		}
		rbs := min(chunk, remaining)
		u := ues[best]
		totalBits += serve(u, rbs, now)
		remaining -= rbs
		if !u.hasData() {
			dead[best] = true
			live--
		}
	}
	return totalBits
}

// schedulePF hands each chunk to the UE with the highest instantaneous
// over average rate, the lowest index winning a tie. Serving a UE
// changes only that UE's metric, so the UEs sit in a heap and only the
// served one is re-keyed (or popped once its queue is empty): a TTI
// costs O(log n) per chunk instead of a scan of every UE.
func (m *mac) schedulePF(ues []*UE, chunk, remaining int, now int64) int {
	h := m.heap[:0]
	for i, u := range ues {
		h = append(h, pfEntry{metric: pfMetric(u), idx: int32(i)})
	}
	h.init()
	totalBits := 0
	for remaining > 0 && len(h) > 0 {
		u := ues[h[0].idx]
		rbs := min(chunk, remaining)
		totalBits += serve(u, rbs, now)
		remaining -= rbs
		if u.hasData() {
			h[0].metric = pfMetric(u)
		} else {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
		}
		h.down(0)
	}
	m.heap = h
	return totalBits
}

// pfMetric is a UE's proportional-fair priority: its instantaneous rate
// per RB over its average.
func pfMetric(u *UE) float64 {
	inst := float64(BitsPerRB(int(u.sh.mcs[u.slot])))
	return inst / (u.sh.pf[u.slot] + 1e-9)
}

// pfEntry is one UE in the PF heap: its metric and its index among the
// scheduled UEs.
type pfEntry struct {
	metric float64
	idx    int32
}

// pfHeap is a binary heap of UEs, highest metric first and lowest index
// first among equal metrics — the UE a linear scan would pick.
type pfHeap []pfEntry

func (h pfHeap) before(i, j int) bool {
	if h[i].metric != h[j].metric {
		return h[i].metric > h[j].metric
	}
	return h[i].idx < h[j].idx
}

func (h pfHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h pfHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && h.before(r, l) {
			c = r
		}
		if !h.before(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
