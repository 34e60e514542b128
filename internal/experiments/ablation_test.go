package experiments

// Ablation benches for the design choices DESIGN.md §4 calls out:
// double encoding, dispatch decode, polling vs events and slice
// scheduling. The transport ablation is BenchmarkSendRecvSCTPish /
// BenchmarkSendRecvPipe in internal/transport.

import (
	"bytes"
	"testing"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/flexran"
	"flexric/internal/nvs"
	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/transport"
)

// BenchmarkAblationDoubleEncoding quantifies E2's mandated double
// encoding (inner E2SM + outer E2AP) against a hypothetical single pass.
func BenchmarkAblationDoubleEncoding(b *testing.B) {
	ping := &sm.HWPing{Seq: 1, T0: 1, Data: bytes.Repeat([]byte{1}, 1500)}
	codec := e2ap.MustCodec(e2ap.SchemeASN)
	b.Run("double", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inner := sm.EncodeHWPing(sm.SchemeASN, ping) // E2SM pass
			if _, err := codec.Encode(&e2ap.Indication{  // E2AP pass
				RequestID: e2ap.RequestID{Requestor: 1, Instance: 1},
				Payload:   inner,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// FlexRAN-style: one encoding pass carries the payload.
			if _, err := flexran.Encode(flexran.MsgEchoRequest, &flexran.Echo{
				Seq: 1, T0: 1, Data: ping.Data,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDispatchDecode isolates the controller dispatch path:
// zero-copy flat envelope vs explicit PER decode (the Fig. 8b mechanism).
func BenchmarkAblationDispatchDecode(b *testing.B) {
	rep := &sm.MACReport{CellTimeMS: 1}
	for i := 0; i < 32; i++ {
		rep.UEs = append(rep.UEs, sm.MACUEEntry{RNTI: uint16(i), CQI: 15, MCS: 28})
	}
	for _, scheme := range []e2ap.Scheme{e2ap.SchemeASN, e2ap.SchemeFB} {
		codec := e2ap.MustCodec(scheme)
		wire, err := codec.Encode(&e2ap.Indication{
			RequestID: e2ap.RequestID{Requestor: 1, Instance: 9},
			Payload:   sm.EncodeMACReport(sm.SchemeFB, rep),
		})
		if err != nil {
			b.Fatal(err)
		}
		wire = append([]byte(nil), wire...)
		b.Run(string(scheme), func(b *testing.B) {
			b.ReportAllocs()
			dec := e2ap.MustCodec(scheme)
			for i := 0; i < b.N; i++ {
				env, err := dec.Envelope(wire)
				if err != nil {
					b.Fatal(err)
				}
				if env.RequestID().Instance != 9 {
					b.Fatal("bad dispatch key")
				}
			}
		})
	}
}

// BenchmarkAblationPollingVsEvents compares the application-visible
// per-tick cost of FlexRAN's poll-the-RIB model (a snapshot copy every
// tick, whether or not anything changed) with FlexRIC's event-driven
// model, where an idle tick costs nothing and an update costs one
// envelope dispatch.
func BenchmarkAblationPollingVsEvents(b *testing.B) {
	b.Run("flexran-poll-tick", func(b *testing.B) {
		ctrl, addr, err := flexran.NewController("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ctrl.Close()
		// Populate the RIB through the real protocol path: 4 BSs × 32 UEs.
		conns := make([]transport.Conn, 4)
		for i := range conns {
			tc, err := transport.Dial(transport.KindSCTPish, addr)
			if err != nil {
				b.Fatal(err)
			}
			defer tc.Close()
			conns[i] = tc
			hello, _ := flexran.Encode(flexran.MsgHello, &flexran.Hello{BSID: uint64(i + 1)})
			if err := tc.Send(hello); err != nil {
				b.Fatal(err)
			}
			rep := &flexran.StatsReport{BSID: uint64(i + 1), TimeMS: 1}
			for u := 0; u < 32; u++ {
				rep.UEs = append(rep.UEs, flexran.UEStats{RNTI: uint16(u + 1)})
			}
			wire, _ := flexran.Encode(flexran.MsgStatsReport, rep)
			if err := tc.Send(wire); err != nil {
				b.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && len(ctrl.Poll()) < 4 {
			time.Sleep(time.Millisecond)
		}
		if len(ctrl.Poll()) != 4 {
			b.Fatal("RIB not populated")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if snap := ctrl.Poll(); len(snap) != 4 {
				b.Fatal("lost RIB entries")
			}
		}
	})
	b.Run("flexric-event-tick", func(b *testing.B) {
		// Event-driven: an idle tick performs no controller work; the
		// per-update cost is the envelope dispatch measured separately in
		// BenchmarkAblationDispatchDecode.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Nothing to do: no message, no callback, no copy.
		}
	})
}

// BenchmarkAblationSliceSched compares the NVS slice scheduler with the
// plain shared proportional-fair pool at the MAC.
func BenchmarkAblationSliceSched(b *testing.B) {
	for _, mode := range []string{"pf-pool", "nvs"} {
		b.Run(mode, func(b *testing.B) {
			cell, err := ran.NewCell(ran.PHYConfig{RAT: ran.RAT5G, NumRB: 106})
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i <= 8; i++ {
				ue, err := cell.Attach(uint16(i), "", "208.95", 20)
				if err != nil {
					b.Fatal(err)
				}
				ue.AddSource(&ran.Saturating{Flow: ran.FiveTuple{DstIP: uint32(i)}, RateBytesPerMS: 1 << 18})
			}
			if mode == "nvs" {
				cfgs := make([]nvs.Config, 4)
				for s := range cfgs {
					cfgs[s] = nvs.Config{ID: uint32(s), Kind: nvs.KindCapacity, Capacity: 0.25, UESched: "pf"}
				}
				if err := cell.ConfigureSlices(cfgs); err != nil {
					b.Fatal(err)
				}
				for i := 1; i <= 8; i++ {
					if err := cell.AssociateUE(uint16(i), uint32((i-1)%4)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cell.Step(1)
			}
		})
	}
}
