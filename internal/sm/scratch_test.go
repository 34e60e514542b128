package sm_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/sm"
)

// The MAC/RLC/PDCP reporters reuse one report value with its entry
// list, the walkers that encode it and one encode buffer from report
// to report. These tests pin
// what that reuse must not change: every payload a reporter emits is
// byte-identical to Encode*Report of a report built from scratch out of
// the same cell state, whatever the previous report looked like.

// capture is an IndicationSender that keeps a copy of every payload (a
// payload handed to a sender is valid only during the call).
type capture struct {
	ctrl agent.ControllerID
	got  [][]byte
}

func (c *capture) SendIndication(_ uint8, _ e2ap.IndicationClass, _, payload []byte) error {
	c.got = append(c.got, append([]byte(nil), payload...))
	return nil
}

func (c *capture) Controller() agent.ControllerID { return c.ctrl }

// take returns the payloads captured since the last call.
func (c *capture) take() [][]byte {
	got := c.got
	c.got = nil
	return got
}

// visFunc adapts a predicate to sm.Visibility.
type visFunc func(ctrl agent.ControllerID, rnti uint16) bool

func (f visFunc) UEVisible(ctrl agent.ControllerID, rnti uint16) bool { return f(ctrl, rnti) }

// reporter is one of the three per-shard monitoring SMs with its
// from-scratch reference encoder.
type reporter struct {
	name string
	new  func(cell *ran.Cell, s sm.Scheme, vis sm.Visibility) *sm.StatsFunction
	ref  func(s sm.Scheme, now int64, ues []*ran.UE) []byte
}

var reporters = []reporter{
	{"mac", sm.NewMACStats, func(s sm.Scheme, now int64, ues []*ran.UE) []byte {
		rep := &sm.MACReport{CellTimeMS: now}
		for _, u := range ues {
			m := u.MACStats()
			rep.UEs = append(rep.UEs, sm.MACUEEntry{
				RNTI: m.RNTI, CQI: uint8(m.CQI), MCS: uint8(m.MCS),
				RBsUsed: m.RBsUsed, TxBits: m.TxBits, ThroughputBps: m.ThroughputBps,
			})
		}
		return sm.EncodeMACReport(s, rep)
	}},
	{"rlc", sm.NewRLCStats, func(s sm.Scheme, now int64, ues []*ran.UE) []byte {
		rep := &sm.RLCReport{CellTimeMS: now}
		for _, u := range ues {
			st := u.RLC().Stats()
			rep.UEs = append(rep.UEs, sm.RLCUEEntry{
				RNTI: u.RNTI, TxPackets: st.TxPackets, TxBytes: st.TxBytes,
				RxPackets: st.RxPackets, RxBytes: st.RxBytes,
				DropPackets: st.DropPackets, DropBytes: st.DropBytes,
				BufferBytes: uint64(st.BufferBytes), BufferPkts: uint64(st.BufferPkts),
				SojournMS: u.RLC().OldestSojournMS(now),
			})
		}
		return sm.EncodeRLCReport(s, rep)
	}},
	{"pdcp", sm.NewPDCPStats, func(s sm.Scheme, now int64, ues []*ran.UE) []byte {
		rep := &sm.PDCPReport{CellTimeMS: now}
		for _, u := range ues {
			st := u.PDCPStats()
			rep.UEs = append(rep.UEs, sm.PDCPUEEntry{RNTI: u.RNTI, TxPackets: st.TxPackets, TxBytes: st.TxBytes})
		}
		return sm.EncodePDCPReport(s, rep)
	}},
}

// reference builds, from scratch, the payloads one report for ctrl must
// consist of: one per shard with visible UEs, or a single empty
// heartbeat. The cell must not be stepping.
func (r reporter) reference(cell *ran.Cell, s sm.Scheme, vis sm.Visibility, ctrl agent.ControllerID, now int64) [][]byte {
	var out [][]byte
	for si := 0; si < cell.NumShards(); si++ {
		var seen []*ran.UE
		cell.WithShardUEs(si, func(ues []*ran.UE) {
			for _, u := range ues {
				if vis.UEVisible(ctrl, u.RNTI) {
					seen = append(seen, u)
				}
			}
		})
		if len(seen) > 0 {
			out = append(out, r.ref(s, now, seen))
		}
	}
	if len(out) == 0 {
		out = append(out, r.ref(s, now, nil))
	}
	return out
}

// loadedCell returns a sharded cell whose UEs carry traffic of
// different weights, so counters differ from UE to UE and grow from
// tick to tick (PER integers change width as they do).
func loadedCell(t testing.TB, shards, ues int) *ran.Cell {
	t.Helper()
	cell, err := ran.NewCellWithOptions(ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, ran.CellOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= ues; i++ {
		u, err := cell.Attach(uint16(i), "", "208.95", 10+i%18)
		if err != nil {
			t.Fatal(err)
		}
		u.AddSource(&ran.Saturating{
			Flow:    ran.FiveTuple{DstIP: uint32(i), DstPort: 5001, Proto: ran.ProtoUDP},
			PktSize: 1500, RateBytesPerMS: 50 * i,
		})
	}
	return cell
}

func subscribe(t testing.TB, fn *sm.StatsFunction, s sm.Scheme, tx *capture) {
	t.Helper()
	err := fn.OnSubscription(tx.ctrl, &e2ap.SubscriptionRequest{
		RequestID:    e2ap.RequestID{Requestor: uint16(tx.ctrl) + 1, Instance: 1},
		EventTrigger: sm.EncodeTrigger(s, sm.Trigger{PeriodMS: 1}),
		Actions:      []e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
	}, tx)
	if err != nil {
		t.Fatal(err)
	}
}

func samePayloads(got, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("payload %d differs from a fresh encode\n got %x\nwant %x", i, got[i], want[i])
		}
	}
	return nil
}

// Consecutive reports whose per-shard UE count grows, shrinks and hits
// zero: each payload equals a fresh encode.
func TestStatsScratchReuseGolden(t *testing.T) {
	const shards, ues = 4, 24
	// Visible RNTIs are those below the tick's limit: the shards fill
	// up, thin out, empty (heartbeat) and fill again.
	limits := []uint16{3, 9, 25, 25, 6, 2, 0, 0, 25, 1}
	for _, s := range []sm.Scheme{sm.SchemeASN, sm.SchemeFB} {
		for _, r := range reporters {
			t.Run(s.String()+"/"+r.name, func(t *testing.T) {
				cell := loadedCell(t, shards, ues)
				var limit uint16
				vis := visFunc(func(_ agent.ControllerID, rnti uint16) bool { return rnti < limit })
				fn := r.new(cell, s, vis)
				tx := &capture{}
				subscribe(t, fn, s, tx)
				for tick, l := range limits {
					limit = l
					cell.Step(3)
					now := cell.Now()
					fn.Tick(now)
					if err := samePayloads(tx.take(), r.reference(cell, s, vis, 0, now)); err != nil {
						t.Fatalf("tick %d (RNTIs < %d visible): %v", tick, l, err)
					}
				}
			})
		}
	}
}

// Two controllers with disjoint visibility partitions due on the same
// tick share the reporter's scratch back to back: nothing of one
// controller's report may show up in the other's.
func TestStatsScratchReuseTwoControllers(t *testing.T) {
	const shards, ues = 4, 24
	// Controller 0 sees the odd RNTIs, controller 1 the even ones at or
	// below 8: different sets, different sizes, shard by shard.
	vis := visFunc(func(ctrl agent.ControllerID, rnti uint16) bool {
		if ctrl == 0 {
			return rnti%2 == 1
		}
		return rnti%2 == 0 && rnti <= 8
	})
	for _, s := range []sm.Scheme{sm.SchemeASN, sm.SchemeFB} {
		for _, r := range reporters {
			t.Run(s.String()+"/"+r.name, func(t *testing.T) {
				cell := loadedCell(t, shards, ues)
				fn := r.new(cell, s, vis)
				txs := []*capture{{ctrl: 0}, {ctrl: 1}}
				for _, tx := range txs {
					subscribe(t, fn, s, tx)
				}
				for tick := 0; tick < 5; tick++ {
					cell.Step(2)
					now := cell.Now()
					fn.Tick(now)
					for _, tx := range txs {
						if err := samePayloads(tx.take(), r.reference(cell, s, vis, tx.ctrl, now)); err != nil {
							t.Fatalf("tick %d controller %d: %v", tick, tx.ctrl, err)
						}
					}
				}
			})
		}
	}
}

// The same golden with the cells stepped by ran.Fleet workers and every
// cell's reporters ticked concurrently, each from two goroutines at
// once (one of the two finds nothing due): run under -race, this is the
// check that the tick mutex covers the scratch.
func TestStatsScratchReuseFleet(t *testing.T) {
	const cells, shards, ues = 4, 4, 16
	vis := visFunc(func(_ agent.ControllerID, rnti uint16) bool { return rnti%3 != 0 })
	for _, s := range []sm.Scheme{sm.SchemeASN, sm.SchemeFB} {
		t.Run(s.String(), func(t *testing.T) {
			type station struct {
				cell *ran.Cell
				fns  []*sm.StatsFunction
				txs  []*capture
			}
			var sts []*station
			var fleetCells []*ran.Cell
			for i := 0; i < cells; i++ {
				st := &station{cell: loadedCell(t, shards, ues)}
				for _, r := range reporters {
					fn, tx := r.new(st.cell, s, vis), &capture{}
					subscribe(t, fn, s, tx)
					st.fns, st.txs = append(st.fns, fn), append(st.txs, tx)
				}
				sts = append(sts, st)
				fleetCells = append(fleetCells, st.cell)
			}
			fleet := ran.NewFleet(fleetCells, cells, func(now int64) {
				var wg sync.WaitGroup
				for _, st := range sts {
					for _, fn := range st.fns {
						for k := 0; k < 2; k++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								fn.Tick(now)
							}()
						}
					}
				}
				wg.Wait()
				for _, st := range sts {
					for i, r := range reporters {
						if err := samePayloads(st.txs[i].take(), r.reference(st.cell, s, vis, 0, now)); err != nil {
							t.Errorf("slot %d %s: %v", now, r.name, err)
						}
					}
				}
			})
			defer fleet.Close()
			fleet.Step(20)
		})
	}
}
