package ctrl

import (
	"reflect"
	"testing"

	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/trace"
	"flexric/internal/tsdb"
)

// written is one sample the monitor stored, without its timestamp.
type written struct {
	k tsdb.SeriesKey
	v float64
}

// referenceRows is the series mapping the monitor had as three
// hand-written per-field ingest bodies, kept as the reference the field
// tables are checked against.
func referenceRows(agent uint32, mac *sm.MACReport, rlc *sm.RLCReport, pdcp *sm.PDCPReport) []written {
	var out []written
	add := func(fn, ue uint16, f tsdb.Field, v float64) {
		out = append(out, written{tsdb.SeriesKey{Agent: agent, Fn: fn, UE: ue, Field: f}, v})
	}
	for _, u := range mac.UEs {
		add(sm.IDMACStats, u.RNTI, tsdb.FieldCQI, float64(u.CQI))
		add(sm.IDMACStats, u.RNTI, tsdb.FieldMCS, float64(u.MCS))
		add(sm.IDMACStats, u.RNTI, tsdb.FieldRBsUsed, float64(u.RBsUsed))
		add(sm.IDMACStats, u.RNTI, tsdb.FieldTxBits, float64(u.TxBits))
		add(sm.IDMACStats, u.RNTI, tsdb.FieldThroughputBps, u.ThroughputBps)
	}
	for _, u := range rlc.UEs {
		add(sm.IDRLCStats, u.RNTI, tsdb.FieldTxPackets, float64(u.TxPackets))
		add(sm.IDRLCStats, u.RNTI, tsdb.FieldTxBytes, float64(u.TxBytes))
		add(sm.IDRLCStats, u.RNTI, tsdb.FieldRxPackets, float64(u.RxPackets))
		add(sm.IDRLCStats, u.RNTI, tsdb.FieldRxBytes, float64(u.RxBytes))
		add(sm.IDRLCStats, u.RNTI, tsdb.FieldDropPackets, float64(u.DropPackets))
		add(sm.IDRLCStats, u.RNTI, tsdb.FieldDropBytes, float64(u.DropBytes))
		add(sm.IDRLCStats, u.RNTI, tsdb.FieldBufferBytes, float64(u.BufferBytes))
		add(sm.IDRLCStats, u.RNTI, tsdb.FieldBufferPkts, float64(u.BufferPkts))
		add(sm.IDRLCStats, u.RNTI, tsdb.FieldSojournMS, float64(u.SojournMS))
	}
	for _, u := range pdcp.UEs {
		add(sm.IDPDCPStats, u.RNTI, tsdb.FieldTxPackets, float64(u.TxPackets))
		add(sm.IDPDCPStats, u.RNTI, tsdb.FieldTxBytes, float64(u.TxBytes))
	}
	return out
}

// TestMonitorRowsMatchReference: one decoded MAC, RLC and PDCP report,
// in either scheme, write exactly the reference's (series, value)
// samples in its order, one timestamp per report; a second shard of the
// same cell time merges into the latest report without touching the
// retained one.
func TestMonitorRowsMatchReference(t *testing.T) {
	mac := &sm.MACReport{CellTimeMS: 40, UEs: []sm.MACUEEntry{
		{RNTI: 1, CQI: 9, MCS: 20, RBsUsed: 13, TxBits: 123456, ThroughputBps: 1.5e6},
		{RNTI: 70, CQI: 15, MCS: 28, RBsUsed: 25, TxBits: 1 << 40, ThroughputBps: 3.25e7},
	}}
	rlc := &sm.RLCReport{CellTimeMS: 40, UEs: []sm.RLCUEEntry{
		{RNTI: 1, TxPackets: 1, TxBytes: 2, RxPackets: 3, RxBytes: 4, DropPackets: 5, DropBytes: 6, BufferBytes: 7, BufferPkts: 8, SojournMS: 9},
		{RNTI: 9, TxPackets: 90, TxBytes: 80, RxPackets: 70, RxBytes: 60, DropPackets: 50, DropBytes: 40, BufferBytes: 30, BufferPkts: 20, SojournMS: -1},
	}}
	pdcp := &sm.PDCPReport{CellTimeMS: 40, UEs: []sm.PDCPUEEntry{{RNTI: 4, TxPackets: 11, TxBytes: 12}}}
	const agent = server.AgentID(3)
	for _, scheme := range []sm.Scheme{sm.SchemeFB, sm.SchemeASN} {
		db := tsdb.New(tsdb.Config{})
		var got []written
		var stamps []int64
		db.SetAppendHook(func(k tsdb.SeriesKey, ts int64, v float64) {
			got = append(got, written{k, v})
			stamps = append(stamps, ts)
		})
		m := &Monitor{
			decode: true, db: db,
			mac:  map[server.AgentID]*sm.MACReport{},
			rlc:  map[server.AgentID]*sm.RLCReport{},
			pdcp: map[server.AgentID]*sm.PDCPReport{},
		}
		m.ingestOne(trace.Context{}, agent, sm.IDMACStats, sm.EncodeMACReport(scheme, mac))
		macEnd := len(got)
		m.ingestOne(trace.Context{}, agent, sm.IDRLCStats, sm.EncodeRLCReport(scheme, rlc))
		rlcEnd := len(got)
		m.ingestOne(trace.Context{}, agent, sm.IDPDCPStats, sm.EncodePDCPReport(scheme, pdcp))
		if want := referenceRows(uint32(agent), mac, rlc, pdcp); !reflect.DeepEqual(got, want) {
			t.Fatalf("scheme %v: wrote\n%v\nreference\n%v", scheme, got, want)
		}
		for _, r := range [][2]int{{0, macEnd}, {macEnd, rlcEnd}, {rlcEnd, len(stamps)}} {
			for _, ts := range stamps[r[0]:r[1]] {
				if ts != stamps[r[0]] {
					t.Fatalf("scheme %v: one report stamped %d and %d", scheme, stamps[r[0]], ts)
				}
			}
		}

		first := m.MAC(agent)
		shard2 := &sm.MACReport{CellTimeMS: 40, UEs: []sm.MACUEEntry{{RNTI: 5, CQI: 3}}}
		m.ingestOne(trace.Context{}, agent, sm.IDMACStats, sm.EncodeMACReport(scheme, shard2))
		if rep := m.MAC(agent); len(rep.UEs) != 3 || rep.UEs[0].RNTI != 1 || rep.UEs[2].RNTI != 5 || len(first.UEs) != 2 {
			t.Fatalf("scheme %v: merged report %+v, retained %+v", scheme, rep, first)
		}
		next := &sm.MACReport{CellTimeMS: 41, UEs: []sm.MACUEEntry{{RNTI: 6}}}
		m.ingestOne(trace.Context{}, agent, sm.IDMACStats, sm.EncodeMACReport(scheme, next))
		if rep := m.MAC(agent); len(rep.UEs) != 1 || rep.UEs[0].RNTI != 6 {
			t.Fatalf("scheme %v: a new cell time kept %+v", scheme, rep)
		}
	}
}
