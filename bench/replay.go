package main

import (
	"sort"
	"time"

	"flexric/internal/bufpool"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/transport"
	"flexric/internal/tsdb"
)

// Stage replay: busy time per layer where the program exposes no
// boundary of its own. One round of reports, built from the rig's cells
// as they rest after the run, is pushed by a single goroutine through
// each layer's public entry points in isolation, replayBudget per
// stage.

const replayBudget = 500 * time.Millisecond

// replay holds one captured round.
type replay struct {
	budget  time.Duration // wall time per stage
	e2      e2ap.Scheme
	sm      sm.Scheme
	mac     []*sm.MACReport
	rlc     []*sm.RLCReport
	pdcp    []*sm.PDCPReport
	samples int      // tsdb samples the round decodes into
	keys    []smKey  // every (agent, fn, ue, field) of the round, in append order
	payload [][]byte // the round's SM payloads, one per indication
	fns     []uint16 // payload[i] belongs to RAN function fns[i]
}

type smKey struct {
	k tsdb.SeriesKey
	v float64
}

// newReplay captures one round from the loop's stations: the reports
// the SM builders would emit now, per shard, in the workload's scheme.
func newReplay(l *roundLoop, e2 e2ap.Scheme, scheme sm.Scheme, budget time.Duration) *replay {
	rp := &replay{e2: e2, sm: scheme, budget: budget}
	for ai, st := range l.stations {
		agent := uint32(ai)
		has := map[uint16]bool{}
		for _, fn := range st.fns {
			has[fn.Definition().ID] = true
		}
		now := st.cell.Now()
		for si := 0; si < st.cell.NumShards(); si++ {
			mac, rlc, pdcp := &sm.MACReport{CellTimeMS: now}, &sm.RLCReport{CellTimeMS: now}, &sm.PDCPReport{CellTimeMS: now}
			st.cell.WithShardUEs(si, func(ues []*ran.UE) {
				for _, u := range ues {
					m := u.MACStats()
					mac.UEs = append(mac.UEs, sm.MACUEEntry{RNTI: m.RNTI, CQI: uint8(m.CQI), MCS: uint8(m.MCS),
						RBsUsed: m.RBsUsed, TxBits: m.TxBits, ThroughputBps: m.ThroughputBps})
					q := u.RLC().Stats()
					rlc.UEs = append(rlc.UEs, sm.RLCUEEntry{RNTI: u.RNTI, TxPackets: q.TxPackets, TxBytes: q.TxBytes,
						RxPackets: q.RxPackets, RxBytes: q.RxBytes, DropPackets: q.DropPackets, DropBytes: q.DropBytes,
						BufferBytes: uint64(q.BufferBytes), BufferPkts: uint64(q.BufferPkts), SojournMS: u.RLC().OldestSojournMS(now)})
					p := u.PDCPStats()
					pdcp.UEs = append(pdcp.UEs, sm.PDCPUEEntry{RNTI: u.RNTI, TxPackets: p.TxPackets, TxBytes: p.TxBytes})
				}
			})
			if has[sm.IDMACStats] {
				rp.mac = append(rp.mac, mac)
				rp.add(sm.IDMACStats, sm.EncodeMACReport(scheme, mac))
				for _, u := range mac.UEs {
					rp.key(agent, sm.IDMACStats, u.RNTI, tsdb.FieldCQI, float64(u.CQI))
					rp.key(agent, sm.IDMACStats, u.RNTI, tsdb.FieldMCS, float64(u.MCS))
					rp.key(agent, sm.IDMACStats, u.RNTI, tsdb.FieldRBsUsed, float64(u.RBsUsed))
					rp.key(agent, sm.IDMACStats, u.RNTI, tsdb.FieldTxBits, float64(u.TxBits))
					rp.key(agent, sm.IDMACStats, u.RNTI, tsdb.FieldThroughputBps, u.ThroughputBps)
				}
			}
			if has[sm.IDRLCStats] {
				rp.rlc = append(rp.rlc, rlc)
				rp.add(sm.IDRLCStats, sm.EncodeRLCReport(scheme, rlc))
				for _, u := range rlc.UEs {
					for _, fv := range [...]struct {
						f tsdb.Field
						v uint64
					}{{tsdb.FieldTxPackets, u.TxPackets}, {tsdb.FieldTxBytes, u.TxBytes}, {tsdb.FieldRxPackets, u.RxPackets},
						{tsdb.FieldRxBytes, u.RxBytes}, {tsdb.FieldDropPackets, u.DropPackets}, {tsdb.FieldDropBytes, u.DropBytes},
						{tsdb.FieldBufferBytes, u.BufferBytes}, {tsdb.FieldBufferPkts, u.BufferPkts}} {
						rp.key(agent, sm.IDRLCStats, u.RNTI, fv.f, float64(fv.v))
					}
					rp.key(agent, sm.IDRLCStats, u.RNTI, tsdb.FieldSojournMS, float64(u.SojournMS))
				}
			}
			if has[sm.IDPDCPStats] {
				rp.pdcp = append(rp.pdcp, pdcp)
				rp.add(sm.IDPDCPStats, sm.EncodePDCPReport(scheme, pdcp))
				for _, u := range pdcp.UEs {
					rp.key(agent, sm.IDPDCPStats, u.RNTI, tsdb.FieldTxPackets, float64(u.TxPackets))
					rp.key(agent, sm.IDPDCPStats, u.RNTI, tsdb.FieldTxBytes, float64(u.TxBytes))
				}
			}
		}
	}
	rp.samples = len(rp.keys)
	return rp
}

func (rp *replay) add(fn uint16, payload []byte) {
	rp.payload = append(rp.payload, payload)
	rp.fns = append(rp.fns, fn)
}

func (rp *replay) key(agent uint32, fn, ue uint16, f tsdb.Field, v float64) {
	rp.keys = append(rp.keys, smKey{tsdb.SeriesKey{Agent: agent, Fn: fn, UE: ue, Field: f}, v})
}

// spin repeats pass for the stage budget and returns the mean ns per pass.
func (rp *replay) spin(pass func()) float64 {
	pass() // warm caches and pools
	n := 0
	t0 := time.Now()
	for time.Since(t0) < rp.budget {
		pass()
		n++
	}
	return float64(time.Since(t0)) / float64(n)
}

// codecStages replays the round through sm, e2ap, transport and bufpool.
func (rp *replay) codecStages(L map[string]float64) {
	if rp.samples == 0 {
		return
	}
	var buf []byte
	encNS := rp.spin(func() {
		for _, r := range rp.mac {
			buf = sm.AppendMACReport(buf[:0], rp.sm, r)
		}
		for _, r := range rp.rlc {
			buf = sm.AppendRLCReport(buf[:0], rp.sm, r)
		}
		for _, r := range rp.pdcp {
			buf = sm.AppendPDCPReport(buf[:0], rp.sm, r)
		}
	})
	L["sm.encode_us_per_ksample"] = encNS / 1e3 / float64(rp.samples) * 1e3
	decNS := rp.spin(func() {
		for i, p := range rp.payload {
			switch rp.fns[i] {
			case sm.IDMACStats:
				_, _ = sm.DecodeMACReport(p)
			case sm.IDRLCStats:
				_, _ = sm.DecodeRLCReport(p)
			case sm.IDPDCPStats:
				_, _ = sm.DecodePDCPReport(p)
			}
		}
	})
	L["sm.decode_us_per_ksample"] = decNS / 1e3 / float64(rp.samples) * 1e3

	// E2AP in the workload's scheme: the agent's EncodeAppend and the
	// server's envelope view plus payload access.
	codec := e2ap.MustCodec(rp.e2)
	ind := e2ap.Indication{RequestID: e2ap.RequestID{Requestor: 1, Instance: 1}, ActionID: 1, Class: e2ap.IndicationReport}
	frames := make([][]byte, len(rp.payload))
	for i, p := range rp.payload {
		ind.RANFunctionID, ind.SN, ind.Payload = rp.fns[i], uint32(i), p
		frames[i], _ = codec.EncodeAppend(nil, &ind)
	}
	inds := float64(len(rp.payload))
	L["e2ap.encode_us_per_ind"] = rp.spin(func() {
		for i, p := range rp.payload {
			ind.RANFunctionID, ind.SN, ind.Payload = rp.fns[i], uint32(i), p
			buf, _ = codec.EncodeAppend(buf[:0], &ind)
		}
	}) / 1e3 / inds
	L["e2ap.decode_us_per_ind"] = rp.spin(func() {
		for _, f := range frames {
			if env, err := codec.Envelope(f); err == nil {
				_ = env.IndicationPayload()
			}
		}
	}) / 1e3 / inds

	// One frame of median size to a loopback peer that echoes it.
	sizes := make([]int, len(frames))
	for i, f := range frames {
		sizes[i] = len(f)
	}
	sort.Ints(sizes)
	frame := make([]byte, sizes[len(sizes)/2])
	L["transport.echo_us_p50"] = rp.echoP50(frame)
	L["bufpool.get_put_ns"] = rp.spin(func() {
		for i := 0; i < 1024; i++ {
			bufpool.Put(bufpool.Get(len(frame)))
		}
	}) / 1024
}

// echoP50 is the median round trip in µs of one frame over the stream
// transport on loopback.
func (rp *replay) echoP50(frame []byte) float64 {
	lis, err := transport.Listen(transport.KindSCTPish, "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer lis.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var buf []byte
		for {
			if buf, err = transport.RecvBuf(c, buf); err != nil {
				return
			}
			if err = c.Send(buf); err != nil {
				return
			}
		}
	}()
	c, err := transport.Dial(transport.KindSCTPish, lis.Addr())
	if err != nil {
		return 0
	}
	var rtt []float64
	var buf []byte
	t0 := time.Now()
	for time.Since(t0) < rp.budget {
		s := time.Now()
		if err = c.Send(frame); err != nil {
			break
		}
		if buf, err = transport.RecvBuf(c, buf); err != nil {
			break
		}
		rtt = append(rtt, float64(time.Since(s))/1e3)
	}
	c.Close()
	<-done
	return summarize(rtt).p50
}

// storeStages replays the round into a store configured like the
// workload's: append in the live key order, then window queries and
// partial-window merges over what was appended.
func (rp *replay) storeStages(L map[string]float64, cfg tsdb.Config, raw bool) {
	st := tsdb.New(cfg)
	ts := int64(time.Second)
	if raw {
		L["tsdb.append_ns_per_sample"] = rp.spin(func() {
			ts += int64(time.Millisecond)
			for i, p := range rp.payload {
				st.AppendRaw(uint32(i), rp.fns[i], ts, p)
			}
		}) / float64(len(rp.payload))
		return
	}
	if rp.samples == 0 {
		return
	}
	L["tsdb.append_ns_per_sample"] = rp.spin(func() {
		ts += 41 * int64(time.Millisecond)
		for _, k := range rp.keys {
			st.Append(k.k, ts, k.v)
		}
	}) / float64(rp.samples)
	// Windows of ten buckets over the newest 49 samples, the shape of a
	// fed_query window.
	to := ts + 1
	from := to - 49*41*int64(time.Millisecond)
	step := (to - from) / 10
	var winNS []float64
	n := 0
	t0 := time.Now()
	for time.Since(t0) < rp.budget {
		k := rp.keys[n%len(rp.keys)].k
		s := time.Now()
		_ = st.Window(k, from, to, step)
		winNS = append(winNS, float64(time.Since(s)))
		n++
	}
	L["tsdb.window_us_p50"] = summarize(winNS).p50 / 1e3
	parts := make([][]tsdb.PartialBucket, 3)
	for i := range parts {
		parts[i] = st.PartialWindow(rp.keys[i%len(rp.keys)].k, from, to, step)
	}
	var mergeNS []float64
	t0 = time.Now()
	for time.Since(t0) < rp.budget {
		s := time.Now()
		var dst []tsdb.PartialBucket
		for _, p := range parts {
			dst = tsdb.MergePartialWindows(dst, p)
		}
		mergeNS = append(mergeNS, float64(time.Since(s)))
	}
	L["federation.merge_us_p50"] = summarize(mergeNS).p50 / 1e3
}
