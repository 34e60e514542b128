package ran

import (
	"math"
	"runtime"
	"testing"
	"time"

	"flexric/internal/nvs"
)

func mustCell(t testing.TB, cfg PHYConfig) *Cell {
	t.Helper()
	c, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func lteCell(t testing.TB) *Cell {
	return mustCell(t, PHYConfig{RAT: RAT4G, NumRB: 25, Band: 7})
}

func nrCell(t testing.TB) *Cell {
	return mustCell(t, PHYConfig{RAT: RAT5G, NumRB: 106, Band: 78})
}

func TestPHYCapacityShape(t *testing.T) {
	// 25 RB @ MCS 28 (5 MHz LTE) should land in the mid-teens Mbps; the
	// paper's Fig. 15 dashed line (dedicated 25 RB eNB) is ~15-20 Mbps.
	lte := float64(CellCapacityBits(25, 28)) * 1000 / 1e6
	if lte < 12 || lte > 25 {
		t.Fatalf("LTE 25RB@28 capacity %.1f Mbps, want 12-25", lte)
	}
	// 106 RB @ MCS 20 (20 MHz NR): Fig. 13a shows ~60 Mbps cell rate.
	nr := float64(CellCapacityBits(106, 20)) * 1000 / 1e6
	if nr < 45 || nr > 75 {
		t.Fatalf("NR 106RB@20 capacity %.1f Mbps, want 45-75", nr)
	}
	// Monotone in MCS.
	for m := 1; m <= MaxMCS; m++ {
		if BitsPerRB(m) < BitsPerRB(m-1) {
			t.Fatalf("BitsPerRB not monotone at MCS %d", m)
		}
	}
	// Clamping.
	if BitsPerRB(-1) != BitsPerRB(0) || BitsPerRB(99) != BitsPerRB(MaxMCS) {
		t.Fatal("MCS clamping broken")
	}
}

func TestCQIFromMCS(t *testing.T) {
	if CQIFromMCS(28) != 15 || CQIFromMCS(0) != 1 {
		t.Fatalf("CQI mapping: %d %d", CQIFromMCS(28), CQIFromMCS(0))
	}
}

func TestAttachDetach(t *testing.T) {
	c := lteCell(t)
	if _, err := c.Attach(1, "imsi-1", "208.95", 28); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(1, "imsi-dup", "208.95", 28); err == nil {
		t.Fatal("duplicate RNTI must fail")
	}
	if c.UE(1) == nil {
		t.Fatal("UE lookup failed")
	}
	if err := c.Detach(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Detach(1); err == nil {
		t.Fatal("double detach must fail")
	}
	if c.UE(1) != nil {
		t.Fatal("UE still present after detach")
	}
}

func TestAttachHook(t *testing.T) {
	c := lteCell(t)
	var got []uint16
	c.OnUEAttach(func(ue *UE) { got = append(got, ue.RNTI) })
	if _, err := c.Attach(7, "i", "208.95", 20); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("attach hook: %v", got)
	}
}

// runSaturated attaches n UEs with saturating traffic and returns per-UE
// throughput in Mbps over the given duration.
func runSaturated(t *testing.T, c *Cell, n int, mcs int, ms int) map[uint16]float64 {
	t.Helper()
	for i := 0; i < n; i++ {
		rnti := uint16(i + 1)
		ue, err := c.Attach(rnti, "", "208.95", mcs)
		if err != nil {
			t.Fatal(err)
		}
		ue.AddSource(&Saturating{
			Flow:           FiveTuple{DstIP: uint32(rnti), DstPort: 5001, Proto: ProtoUDP},
			RateBytesPerMS: 2 * CellCapacityBits(c.Config().NumRB, mcs) / 8,
		})
	}
	c.Step(ms)
	out := make(map[uint16]float64)
	for _, ue := range c.UEs() {
		out[ue.RNTI] = float64(ue.DeliveredBits()) / float64(ms) * 1000 / 1e6
	}
	return out
}

func TestEqualShareWithoutSlicing(t *testing.T) {
	c := nrCell(t)
	thr := runSaturated(t, c, 3, 20, 4000)
	cellMbps := float64(CellCapacityBits(106, 20)) * 1000 / 1e6
	total := 0.0
	for _, v := range thr {
		total += v
	}
	if math.Abs(total-cellMbps)/cellMbps > 0.05 {
		t.Fatalf("total %.1f Mbps, want ~cell capacity %.1f", total, cellMbps)
	}
	for rnti, v := range thr {
		if math.Abs(v-cellMbps/3)/(cellMbps/3) > 0.1 {
			t.Fatalf("UE %d got %.1f Mbps, want ~%.1f (equal PF share)", rnti, v, cellMbps/3)
		}
	}
}

func TestNVSSliceIsolationInCell(t *testing.T) {
	// Fig. 13a instance 3: white UE alone in slice 1 (50 %), two UEs in
	// slice 2 (50 %): white UE gets ~half the cell.
	c := nrCell(t)
	for i := 1; i <= 3; i++ {
		ue, err := c.Attach(uint16(i), "", "208.95", 20)
		if err != nil {
			t.Fatal(err)
		}
		ue.AddSource(&Saturating{
			Flow:           FiveTuple{DstIP: uint32(i), Proto: ProtoUDP},
			RateBytesPerMS: 2 * CellCapacityBits(106, 20) / 8,
		})
	}
	if err := c.ConfigureSlices([]nvs.Config{
		{ID: 1, Kind: nvs.KindCapacity, Capacity: 0.5},
		{ID: 2, Kind: nvs.KindCapacity, Capacity: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AssociateUE(1, 1); err != nil {
		t.Fatal(err)
	}
	_ = c.AssociateUE(2, 2)
	_ = c.AssociateUE(3, 2)
	c.Step(6000)
	cellMbps := float64(CellCapacityBits(106, 20)) * 1000 / 1e6
	u1 := float64(c.UE(1).DeliveredBits()) / 6000 * 1000 / 1e6
	if math.Abs(u1-cellMbps/2)/(cellMbps/2) > 0.08 {
		t.Fatalf("sliced UE1 %.1f Mbps, want ~%.1f (50%%)", u1, cellMbps/2)
	}
}

func TestNVSSharingVsStaticInCell(t *testing.T) {
	// Fig. 13b: slices 66/34, slice-2 UE inactive. With sharing, slice 1
	// takes ~everything; with NoSharing it is capped near 66 %.
	run := func(noShare bool) float64 {
		c := nrCell(t)
		ue1, _ := c.Attach(1, "", "208.95", 20)
		ue1.AddSource(&Saturating{Flow: FiveTuple{DstIP: 1}, RateBytesPerMS: 2 * CellCapacityBits(106, 20) / 8})
		if _, err := c.Attach(2, "", "208.95", 20); err != nil {
			t.Fatal(err)
		}
		if err := c.ConfigureSlices([]nvs.Config{
			{ID: 1, Kind: nvs.KindCapacity, Capacity: 0.66, NoSharing: noShare},
			{ID: 2, Kind: nvs.KindCapacity, Capacity: 0.34, NoSharing: noShare},
		}); err != nil {
			t.Fatal(err)
		}
		_ = c.AssociateUE(1, 1)
		_ = c.AssociateUE(2, 2)
		c.Step(6000)
		return float64(c.UE(1).DeliveredBits()) / 6000 * 1000 / 1e6
	}
	cellMbps := float64(CellCapacityBits(106, 20)) * 1000 / 1e6
	shared := run(false)
	static := run(true)
	if shared < 0.95*cellMbps {
		t.Fatalf("sharing: %.1f Mbps, want ~full cell %.1f", shared, cellMbps)
	}
	if math.Abs(static-0.66*cellMbps)/(0.66*cellMbps) > 0.08 {
		t.Fatalf("static: %.1f Mbps, want ~%.1f (66%%)", static, 0.66*cellMbps)
	}
	// The paper: sharing increases the active slice's throughput by ~50%.
	gain := shared / static
	if gain < 1.3 || gain > 1.8 {
		t.Fatalf("sharing gain %.2fx, want ~1.5x", gain)
	}
}

// doneFunc adapts a function to the queues' done hook.
type doneFunc func(p *Packet, now int64, delivered bool)

func (f doneFunc) packetDone(p *Packet, now int64, delivered bool) { f(p, now, delivered) }

func TestRLCDrainAndSojourn(t *testing.T) {
	now := int64(0)
	delivered := 0
	q := &RLCQueue{done: doneFunc(func(p *Packet, at int64, ok bool) {
		if !ok || p.Seq != 7 || at != 3 {
			t.Fatalf("done(seq %d, at %d, delivered %v), want (7, 3, true)", p.Seq, at, ok)
		}
		delivered++
	})}
	if !q.Enqueue(&Packet{Size: 1000, Seq: 7, Sent: now}, now) {
		t.Fatal("enqueue failed")
	}
	if q.Backlog() != 1000 {
		t.Fatalf("backlog %d", q.Backlog())
	}
	// Drain 400 B/TTI: the packet completes on the 3rd drain at t=3.
	for i := 0; i < 3; i++ {
		now++
		q.Drain(400, now)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
	st := q.Stats()
	if st.SojournMS != 3 {
		t.Fatalf("sojourn %d ms, want 3", st.SojournMS)
	}
	if st.TxBytes != 1000 || st.BufferBytes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRLCDropTail(t *testing.T) {
	drops := 0
	q := &RLCQueue{MaxBytes: 2500, done: doneFunc(func(p *Packet, _ int64, delivered bool) {
		if delivered || p.Seq != 3 {
			t.Fatalf("done(seq %d, delivered %v), want (3, false)", p.Seq, delivered)
		}
		drops++
	})}
	mk := func(seq uint64) *Packet { return &Packet{Size: 1000, Seq: seq} }
	if !q.Enqueue(mk(1), 0) || !q.Enqueue(mk(2), 0) {
		t.Fatal("first two must fit")
	}
	if q.Enqueue(mk(3), 0) {
		t.Fatal("third must be dropped (2500 B cap)")
	}
	if drops != 1 {
		t.Fatalf("drop callbacks: %d", drops)
	}
	st := q.Stats()
	if st.DropPackets != 1 || st.DropBytes != 1000 {
		t.Fatalf("drop stats %+v", st)
	}
}

func TestRLCOldestSojourn(t *testing.T) {
	q := &RLCQueue{}
	q.Enqueue(&Packet{Size: 10}, 5)
	if got := q.OldestSojournMS(25); got != 20 {
		t.Fatalf("oldest sojourn %d, want 20", got)
	}
	q.Drain(10, 26)
	if got := q.OldestSojournMS(30); got != 0 {
		t.Fatalf("empty queue sojourn %d", got)
	}
}

// TestRLCCompaction checks that the RLC ring delivers every packet once,
// in order, through a steady enqueue/drain cycle and through growth while
// its contents wrap around the end of the buffer.
func TestRLCCompaction(t *testing.T) {
	for _, tc := range []struct {
		name string
		// rounds of (enqueue, then drain) packet counts
		rounds [][2]int
	}{
		{"steady", repeatRound(500, [2]int{1, 1})},
		// Fill 4 slots, drain 3 so the head sits at slot 3, enqueue 3
		// so the contents wrap, then enqueue 40 more while wrapped: the
		// ring grows from 4 to 64 slots through the wrapped state.
		{"grow-wrapped", [][2]int{{4, 3}, {3, 0}, {40, 0}, {0, 44}}},
		// Growth past 256 slots switches to the 1.25x step, repeatedly
		// while wrapped.
		{"grow-large-wrapped", append(repeatRound(50, [2]int{17, 11}), [2]int{0, 300})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []uint64
			q := &RLCQueue{done: doneFunc(func(p *Packet, _ int64, delivered bool) {
				if delivered {
					got = append(got, p.Seq)
				}
			})}
			seq, now := uint64(0), int64(0)
			for _, r := range tc.rounds {
				now++
				for i := 0; i < r[0]; i++ {
					seq++
					if !q.Enqueue(&Packet{Size: 100, Seq: seq}, now) {
						t.Fatalf("packet %d dropped", seq)
					}
				}
				q.Drain(100*r[1], now)
				if st := q.Stats(); st.BufferPkts != int(seq)-len(got) || q.Backlog() != 100*st.BufferPkts {
					t.Fatalf("after round %v: %d queued, %d B backlog; want %d", r, st.BufferPkts, q.Backlog(), int(seq)-len(got))
				}
			}
			if q.Backlog() != 0 {
				t.Fatalf("backlog %d after full drain", q.Backlog())
			}
			if st := q.Stats(); st.TxPackets != seq || len(got) != int(seq) {
				t.Fatalf("tx %d, delivered %d, want %d", st.TxPackets, len(got), seq)
			}
			for i, s := range got {
				if s != uint64(i+1) {
					t.Fatalf("delivery %d is seq %d: out of order", i, s)
				}
			}
		})
	}
}

func repeatRound(n int, r [2]int) [][2]int {
	rs := make([][2]int, n)
	for i := range rs {
		rs[i] = r
	}
	return rs
}

func TestTCClassifier(t *testing.T) {
	var forwarded []Packet
	tc := NewTC(func(p *Packet, now int64) bool {
		forwarded = append(forwarded, *p)
		return true
	})
	// Transparent: straight through.
	tc.Submit(&Packet{Flow: FiveTuple{DstPort: 9}, Size: 10}, 0)
	if len(forwarded) != 1 {
		t.Fatal("transparent mode must forward immediately")
	}
	// Activate with a VoIP queue.
	q := tc.AddQueue()
	if q != 1 {
		t.Fatalf("new queue id %d, want 1", q)
	}
	if err := tc.AddFilter(TCFilter{Match: TCMatch{DstPort: 5060, Proto: ProtoUDP, MatchProto: true}, Queue: q}); err != nil {
		t.Fatal(err)
	}
	voip := &Packet{Flow: FiveTuple{DstPort: 5060, Proto: ProtoUDP}, Size: 172}
	bulk := &Packet{Flow: FiveTuple{DstPort: 5001, Proto: ProtoTCP}, Size: 1448}
	tc.Submit(voip, 1)
	tc.Submit(bulk, 1)
	if len(forwarded) != 1 {
		t.Fatal("active mode must queue, not forward")
	}
	st := tc.Stats()
	if st.Mode != "active" || len(st.Queues) != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Queues[1].EnqPackets != 1 || st.Queues[0].EnqPackets != 1 {
		t.Fatalf("classification wrong: %+v", st.Queues)
	}
	// Pump with no pacer: everything forwards.
	tc.Pump(2, 0, 1500)
	if len(forwarded) != 3 {
		t.Fatalf("forwarded %d after pump", len(forwarded))
	}
}

func TestTCMatchWildcards(t *testing.T) {
	all := TCMatch{}
	if !all.Matches(FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}) {
		t.Fatal("empty match must be wildcard")
	}
	m := TCMatch{SrcIP: 9}
	if m.Matches(FiveTuple{SrcIP: 8}) || !m.Matches(FiveTuple{SrcIP: 9}) {
		t.Fatal("src ip match")
	}
	mp := TCMatch{Proto: ProtoUDP, MatchProto: true}
	if mp.Matches(FiveTuple{Proto: ProtoTCP}) || !mp.Matches(FiveTuple{Proto: ProtoUDP}) {
		t.Fatal("proto match")
	}
}

func TestTCPacerBoundsDRB(t *testing.T) {
	// With the BDP pacer, the TC only submits enough to keep the DRB at
	// the delay target.
	var drb int
	tc := NewTC(func(p *Packet, now int64) bool {
		drb += p.Size
		return true
	})
	tc.AddQueue()
	tc.SetPacer(PacerBDP, 4)
	for i := 0; i < 100; i++ {
		tc.Submit(&Packet{Size: 1448, Seq: uint64(i)}, 0)
	}
	drainPerTTI := 2000 // bytes/ms
	tc.Pump(1, drb, drainPerTTI)
	target := 4*drainPerTTI + 2*1500
	if drb == 0 {
		t.Fatal("pacer must not starve the DRB")
	}
	if drb > target+1448 {
		t.Fatalf("DRB %d exceeds pacing target %d", drb, target)
	}
	// Next pump with DRB still full: nothing more submitted.
	before := drb
	tc.Pump(2, drb, drainPerTTI)
	if drb != before {
		t.Fatal("pacer overfilled an already-full DRB")
	}
}

func TestTCRemoveQueue(t *testing.T) {
	var fwd int
	tc := NewTC(func(p *Packet, now int64) bool { fwd++; return true })
	q := tc.AddQueue()
	if err := tc.AddFilter(TCFilter{Match: TCMatch{DstPort: 1}, Queue: q}); err != nil {
		t.Fatal(err)
	}
	tc.Submit(&Packet{Flow: FiveTuple{DstPort: 1}, Size: 10}, 0)
	if err := tc.RemoveQueue(q, 1); err != nil {
		t.Fatal(err)
	}
	if fwd != 1 {
		t.Fatal("queued packets must flush downstream on queue removal")
	}
	if err := tc.RemoveQueue(0, 1); err == nil {
		t.Fatal("default queue must not be removable")
	}
	if err := tc.RemoveQueue(42, 1); err == nil {
		t.Fatal("unknown queue must error")
	}
	if err := tc.AddFilter(TCFilter{Queue: 42}); err == nil {
		t.Fatal("filter to unknown queue must error")
	}
}

func TestCBRSource(t *testing.T) {
	c := lteCell(t)
	ue, _ := c.Attach(1, "", "208.95", 28)
	voip := &CBR{Flow: FiveTuple{DstPort: 5060, Proto: ProtoUDP}, Size: 172, IntervalMS: 20, ReturnDelayMS: 10}
	ue.AddSource(voip)
	c.Step(1000)
	sent, recvd, dropped := voip.Counters()
	if sent != 50 {
		t.Fatalf("sent %d packets in 1 s, want 50", sent)
	}
	if recvd != sent || dropped != 0 {
		t.Fatalf("recvd %d dropped %d", recvd, dropped)
	}
	rtts := voip.RTTs()
	if len(rtts) != 50 {
		t.Fatalf("rtt samples %d", len(rtts))
	}
	// Unloaded cell: RTT ≈ return delay + ≤1ms queueing.
	for _, r := range rtts {
		if r < 10 || r > 15 {
			t.Fatalf("unloaded RTT %d ms, want ~10", r)
		}
	}
}

func TestCubicFillsBufferAndBacksOff(t *testing.T) {
	c := lteCell(t)
	ue, _ := c.Attach(1, "", "208.95", 28)
	flow := &CubicFlow{Flow: FiveTuple{DstPort: 5001, Proto: ProtoTCP}}
	ue.AddSource(flow)
	c.Step(30000)
	delivered, losses := flow.Stats()
	if delivered == 0 {
		t.Fatal("cubic flow delivered nothing")
	}
	if losses == 0 {
		t.Fatal("loss-based CC must eventually overflow the RLC buffer")
	}
	// Link utilization should stay high (loss-based CC keeps queue full).
	capBits := float64(CellCapacityBits(25, 28)) * 30000
	gotBits := float64(delivered) * 1448 * 8
	if gotBits < 0.7*capBits {
		t.Fatalf("utilization %.0f%%, want ≥70%%", 100*gotBits/capBits)
	}
}

func TestBufferbloatAndTCRemedy(t *testing.T) {
	// The Fig. 11 mechanism: transparent mode lets a Cubic flow bloat the
	// RLC queue so VoIP suffers; a second TC queue + filter + BDP pacer
	// protects it.
	run := func(useTC bool) (maxVoipRTT int64) {
		c := lteCell(t)
		ue, _ := c.Attach(1, "", "208.95", 28)
		voipFlow := FiveTuple{DstIP: 1, DstPort: 5060, Proto: ProtoUDP}
		voip := &CBR{Flow: voipFlow, Size: 172, IntervalMS: 20, ReturnDelayMS: 10}
		ue.AddSource(voip)
		ue.AddSource(&CubicFlow{Flow: FiveTuple{DstIP: 1, DstPort: 5001, Proto: ProtoTCP}, StartMS: 5000})
		if useTC {
			q := ue.TC().AddQueue()
			if err := ue.TC().AddFilter(TCFilter{
				Match: TCMatch{DstPort: 5060, Proto: ProtoUDP, MatchProto: true},
				Queue: q,
			}); err != nil {
				t.Fatal(err)
			}
			ue.TC().SetPacer(PacerBDP, 4)
		}
		c.Step(30000)
		for _, r := range voip.RTTs() {
			if r > maxVoipRTT {
				maxVoipRTT = r
			}
		}
		return maxVoipRTT
	}
	transparent := run(false)
	protected := run(true)
	if transparent < 200 {
		t.Fatalf("transparent-mode VoIP RTT max %d ms; bufferbloat should push it to hundreds of ms", transparent)
	}
	if protected > 60 {
		t.Fatalf("TC-protected VoIP RTT max %d ms, want < 60", protected)
	}
	// Paper: ~4x improvement; we only require a strong separation.
	if transparent < 4*protected {
		t.Fatalf("improvement %.1fx, want ≥4x (transparent %d, protected %d)",
			float64(transparent)/float64(protected), transparent, protected)
	}
}

// TestSourcesLearnPacketEnds checks that a source's delivery and loss
// counts still arrive once queued packets are values: CBR receptions,
// drops and RTTs and Saturating drops on one UE, Cubic losses on
// another, through the RLC drop-tail path and through full TC queues
// behind the BDP pacer. (The Cubic flow has a UE to itself: a Cubic flow
// whose every segment is dropped on emit never leaves Tick.)
func TestSourcesLearnPacketEnds(t *testing.T) {
	for _, path := range []string{"rlc", "tc"} {
		t.Run(path, func(t *testing.T) {
			c := nrCell(t)
			ue, _ := c.Attach(1, "", "208.95", 28)
			cbr := &CBR{Flow: FiveTuple{DstPort: 5060}, Size: 172, IntervalMS: 2, ReturnDelayMS: 10}
			sat := &Saturating{Flow: FiveTuple{DstPort: 9}, RateBytesPerMS: 1 << 20}
			ue.AddSource(sat) // ticks first, so the CBR packet meets a full queue
			ue.AddSource(cbr)
			bulk, _ := c.Attach(2, "", "208.95", 28)
			cubic := &CubicFlow{Flow: FiveTuple{DstPort: 5001}}
			bulk.AddSource(cubic)
			if path == "tc" {
				ue.TC().SetPacer(PacerBDP, 4)
				bulk.TC().SetPacer(PacerBDP, 4)
			} else {
				bulk.RLC().MaxBytes = 64 << 10
			}
			c.Step(4000)

			sent, recvd, cbrDrops := cbr.Counters()
			if recvd == 0 || cbrDrops == 0 || recvd+cbrDrops > sent {
				t.Fatalf("CBR sent %d recvd %d dropped %d", sent, recvd, cbrDrops)
			}
			if uint64(len(cbr.RTTs())) != recvd {
				t.Fatalf("CBR %d RTTs for %d receptions", len(cbr.RTTs()), recvd)
			}
			if got, want := cbrDrops+sat.Dropped(), queueDrops(t, ue, path); got != want || sat.Dropped() == 0 {
				t.Fatalf("UE 1 sources counted %d drops (CBR %d, Saturating %d), its %s queue %d",
					got, cbrDrops, sat.Dropped(), path, want)
			}
			if _, losses := cubic.Stats(); losses == 0 {
				t.Fatal("Cubic saw no loss")
			}
			// Every segment is acked, in flight (awaiting its ACK
			// included) or lost.
			cubicDrops := cubic.seq - cubic.delivered - uint64(cubic.inflight)
			if want := queueDrops(t, bulk, path); cubicDrops != want {
				t.Fatalf("Cubic counted %d dropped segments, its %s queue %d", cubicDrops, path, want)
			}
		})
	}
}

// TestCubicBesideSaturatingFinishes: a Cubic flow sharing its UE's
// queue with a Saturating source meets a full queue that drops its
// segments on enqueue. It must stop emitting for the tick at the first
// such drop: its loop used to run until inflight reached cwnd, which
// the drops themselves kept it from doing.
func TestCubicBesideSaturatingFinishes(t *testing.T) {
	c := nrCell(t)
	ue, _ := c.Attach(1, "", "208.95", 28)
	sat := &Saturating{Flow: FiveTuple{DstPort: 9}, RateBytesPerMS: 1 << 20}
	cubic := &CubicFlow{Flow: FiveTuple{DstPort: 5001}}
	ue.AddSource(sat) // ticks first, so the Cubic segments meet a full queue
	ue.AddSource(cubic)
	done := make(chan uint64, 1)
	go func() {
		var most uint64
		for i := 0; i < 20000; i++ {
			seq := cubic.seq
			c.Step(1)
			most = max(most, cubic.seq-seq)
		}
		done <- most
	}()
	select {
	case most := <-done:
		if _, losses := cubic.Stats(); losses == 0 {
			t.Fatal("Cubic saw no loss: the queue never dropped its segments")
		}
		if most > 64 {
			t.Fatalf("Cubic emitted %d segments in one TTI", most)
		}
		t.Logf("at most %d segments emitted per TTI", most)
	case <-time.After(time.Minute):
		t.Fatal("20 000 TTIs did not finish within a minute: CubicFlow.Tick spins")
	}
}

// queueDrops returns the packets dropped at the UE's RLC ("rlc") or TC
// ("tc") queues, failing if the other layer dropped any.
func queueDrops(t *testing.T, u *UE, path string) uint64 {
	t.Helper()
	rlc, tc := u.RLC().Stats().DropPackets, uint64(0)
	for _, q := range u.TC().Stats().Queues {
		tc += q.DropPackets
	}
	if path == "tc" {
		rlc, tc = tc, rlc
	}
	if tc != 0 {
		t.Fatalf("UE %d: %d drops outside the %s path", u.RNTI, tc, path)
	}
	return rlc
}

func TestSplitNodes(t *testing.T) {
	c := lteCell(t)
	cu, du := Split(77, c)
	if cu.BSID != du.BSID {
		t.Fatal("CU and DU must share the BS identity")
	}
	if !cu.HasLayer(LayerPDCP) || cu.HasLayer(LayerMAC) {
		t.Fatal("CU layers wrong")
	}
	if !du.HasLayer(LayerMAC) || du.HasLayer(LayerPDCP) {
		t.Fatal("DU layers wrong")
	}
	mono := NewMonolithicNode(78, c)
	for _, l := range []Layer{LayerSDAP, LayerPDCP, LayerRRC, LayerRLC, LayerMAC, LayerPHY, LayerTC} {
		if !mono.HasLayer(l) {
			t.Fatalf("monolithic node missing %s", l)
		}
	}
	if cu.Cell() != c || du.Cell() != c {
		t.Fatal("nodes must expose the shared cell")
	}
}

func TestRRSchedulerEqualShare(t *testing.T) {
	c := nrCell(t)
	for i := 1; i <= 2; i++ {
		ue, _ := c.Attach(uint16(i), "", "208.95", 20)
		ue.AddSource(&Saturating{Flow: FiveTuple{DstIP: uint32(i)}, RateBytesPerMS: 1 << 20})
	}
	if err := c.ConfigureSlices([]nvs.Config{{ID: 0, Kind: nvs.KindCapacity, Capacity: 1.0, UESched: "rr"}}); err != nil {
		t.Fatal(err)
	}
	c.Step(3000)
	u1 := float64(c.UE(1).DeliveredBits())
	u2 := float64(c.UE(2).DeliveredBits())
	if math.Abs(u1-u2)/u1 > 0.05 {
		t.Fatalf("RR shares diverge: %v vs %v", u1, u2)
	}
}

func TestInvalidConfigs(t *testing.T) {
	if _, err := NewCell(PHYConfig{NumRB: 0}); err == nil {
		t.Fatal("zero RB cell must fail")
	}
	if _, err := NewCell(PHYConfig{NumRB: 1000}); err == nil {
		t.Fatal("absurd RB count must fail")
	}
	if _, err := ParseUESched("fifo"); err == nil {
		t.Fatal("unknown sched must fail")
	}
	c := lteCell(t)
	if err := c.AssociateUE(9, 1); err == nil {
		t.Fatal("associating unknown UE must fail")
	}
	if err := c.WithUE(9, func(*UE) error { return nil }); err == nil {
		t.Fatal("WithUE unknown must fail")
	}
}

func TestMACStatsAccounting(t *testing.T) {
	c := lteCell(t)
	ue, _ := c.Attach(1, "", "208.95", 28)
	ue.AddSource(&Saturating{Flow: FiveTuple{DstIP: 1}, RateBytesPerMS: 1 << 20})
	c.Step(100)
	ms := ue.MACStats()
	if ms.TxBits == 0 || ms.RBsUsed == 0 {
		t.Fatalf("MAC stats empty: %+v", ms)
	}
	if ms.CQI != CQIFromMCS(28) || ms.MCS != 28 {
		t.Fatalf("CQI/MCS: %+v", ms)
	}
	ps := ue.PDCPStats()
	if ps.TxPackets == 0 || ps.TxBytes == 0 {
		t.Fatalf("PDCP stats empty: %+v", ps)
	}
	if c.TotalTxBits() != ms.TxBits {
		t.Fatalf("cell total %d != ue %d", c.TotalTxBits(), ms.TxBits)
	}
}

// TestCellStepSteadyStateAllocs is the RAN slot's allocation gate: once
// the RLC rings of a cell of saturating UEs have grown to drop-tail
// steady state, a TTI (traffic, queues, PF pick, drops) allocates
// nothing — also right after a garbage collection, which empties any
// free list a pool would keep.
func TestCellStepSteadyStateAllocs(t *testing.T) {
	c := lteCell(t)
	for i := 1; i <= 32; i++ {
		ue, err := c.Attach(uint16(i), "", "208.95", 4+i%24)
		if err != nil {
			t.Fatal(err)
		}
		ue.AddSource(&Saturating{Flow: FiveTuple{DstIP: uint32(i)}, RateBytesPerMS: 20000})
	}
	c.Step(1000) // 3 MB RLC buffers fill in ~150 TTIs
	if c.UE(1).RLC().Stats().DropPackets == 0 {
		t.Fatal("warm-up did not reach drop-tail")
	}
	// Count from the memory profile at rate 1, not MemStats.Mallocs:
	// the runtime's own goroutines (the background scavenger re-arming
	// its timer) allocate now and then, and only Step's objects count.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const rounds, tti = 5, 100
	start := stepAllocs(t)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		c.Step(tti)
	}
	if n := stepAllocs(t) - start; n != 0 {
		t.Fatalf("%d steady-state TTIs allocated %d objects, want 0", rounds*tti, n)
	}
}

// stepAllocs returns the objects the memory profile has recorded as
// allocated under Cell.Step.
func stepAllocs(t *testing.T) int64 {
	t.Helper()
	runtime.GC() // the profile is published a cycle late
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatal("memory profile grew while being read")
	}
	total := int64(0)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "flexric/internal/ran.(*Cell).Step" {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

func BenchmarkCellStep3UE(b *testing.B) { benchCellStep(b, 3) }

func BenchmarkCellStep32UE(b *testing.B) { benchCellStep(b, 32) }

func benchCellStep(b *testing.B, n int) {
	c, err := NewCell(PHYConfig{RAT: RAT4G, NumRB: 25})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ue, err := c.Attach(uint16(i+1), "", "208.95", 28)
		if err != nil {
			b.Fatal(err)
		}
		ue.AddSource(&Saturating{Flow: FiveTuple{DstIP: uint32(i)}, RateBytesPerMS: 20000})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(1)
	}
}
