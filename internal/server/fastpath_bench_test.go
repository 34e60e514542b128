package server_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/e2ap"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/telemetry"
	"flexric/internal/trace"
	"flexric/internal/transport"
)

// benchFn is a minimal RAN function that hands its indication sender to
// the benchmark.
type benchFn struct {
	id uint16

	mu sync.Mutex
	tx agent.IndicationSender
}

func (f *benchFn) Definition() e2ap.RANFunctionItem {
	return e2ap.RANFunctionItem{ID: f.id, Revision: 1, OID: "1.3.6.1.4.1.53148.1.9"}
}

func (f *benchFn) OnSubscription(ctrl agent.ControllerID, req *e2ap.SubscriptionRequest, tx agent.IndicationSender) error {
	f.mu.Lock()
	f.tx = tx
	f.mu.Unlock()
	return nil
}

func (f *benchFn) OnSubscriptionDelete(ctrl agent.ControllerID, req *e2ap.SubscriptionDeleteRequest) error {
	return nil
}

func (f *benchFn) OnControl(ctrl agent.ControllerID, req *e2ap.ControlRequest) ([]byte, error) {
	return nil, nil
}

// fastPathFixture wires one agent to one server over the in-process
// pipe transport (FB scheme) and subscribes to the bench function,
// returning the live indication sender and a channel signalled from the
// server's OnIndication callback.
func fastPathFixture(b *testing.B) (agent.IndicationSender, chan struct{}, func()) {
	b.Helper()
	telemetry.Reset()
	srv := server.New(server.Config{
		RICID:     e2ap.GlobalRICID{PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, RICID: 7},
		Scheme:    e2ap.SchemeFB,
		Transport: transport.KindPipe,
	})
	addr, err := srv.Start(fmt.Sprintf("bench-fastpath-%d", time.Now().UnixNano()))
	if err != nil {
		b.Fatal(err)
	}
	fn := &benchFn{id: sm.IDHelloWorld}
	a := agent.New(agent.Config{
		NodeID:    e2ap.GlobalE2NodeID{PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: e2ap.NodeDU, NodeID: 9},
		Scheme:    e2ap.SchemeFB,
		Transport: transport.KindPipe,
	})
	if err := a.RegisterFunction(fn); err != nil {
		b.Fatal(err)
	}
	if _, err := a.Connect(addr); err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Agents()) == 0 {
		if time.Now().After(deadline) {
			b.Fatal("agent never registered")
		}
		time.Sleep(time.Millisecond)
	}
	got := make(chan struct{}, 1)
	_, err = srv.Subscribe(srv.Agents()[0].ID, fn.id, sm.EncodeTrigger(sm.SchemeFB, sm.Trigger{PeriodMS: 1}),
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
		server.SubscriptionCallbacks{OnIndication: func(ev server.IndicationEvent) {
			if len(ev.Env.IndicationPayload()) == 0 {
				panic("indication without payload")
			}
			got <- struct{}{}
		}})
	if err != nil {
		b.Fatal(err)
	}
	for {
		fn.mu.Lock()
		tx := fn.tx
		fn.mu.Unlock()
		if tx != nil {
			cleanup := func() {
				a.Close()
				srv.Close()
			}
			return tx, got, cleanup
		}
		if time.Now().After(deadline) {
			b.Fatal("subscription never admitted")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkIndicationFastPath measures the E2AP leg of the indication
// path in isolation — SM payload already encoded, FB E2AP encode, pipe
// transport, server envelope dispatch, subscription callback — with
// telemetry compiled in and tracing unsampled, i.e. the production
// configuration. scripts/verify.sh gates this at ≤2 allocs/op: encode-append
// into a reused buffer, pooled pipe frames, recycled receive buffers,
// reused envelope views. It sees neither the SM report build nor the
// ASN.1 codec nor the TCP transport; the system-level gate over those
// is TestIndicationPathAllocs in internal/ctrl.
func BenchmarkIndicationFastPath(b *testing.B) {
	if trace.SampleEvery() != 0 {
		b.Fatal("trace sampling enabled; the fast path benchmark measures the unsampled configuration")
	}
	tx, got, cleanup := fastPathFixture(b)
	defer cleanup()
	header := []byte{1}
	payload := bytes.Repeat([]byte{0x42}, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.SendIndication(1, e2ap.IndicationReport, header, payload); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}

// BenchmarkIndicationFastPathBatch is the batched variant: indications
// are encoded into pooled frames as they are added and flushed to the
// transport in groups of 8 (one coalesced wire operation per TTI).
// allocs/op counts per indication.
func BenchmarkIndicationFastPathBatch(b *testing.B) {
	if trace.SampleEvery() != 0 {
		b.Fatal("trace sampling enabled; the fast path benchmark measures the unsampled configuration")
	}
	tx, got, cleanup := fastPathFixture(b)
	defer cleanup()
	bs, ok := tx.(agent.BatchIndicationSender)
	if !ok {
		b.Fatalf("%T does not support batching", tx)
	}
	batch := bs.NewBatch()
	header := []byte{1}
	payload := bytes.Repeat([]byte{0x42}, 1500)
	const batchSize = 8
	flush := func() {
		n := batch.Len()
		if n == 0 {
			return
		}
		if err := batch.Flush(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j++ {
			<-got
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := batch.Add(1, e2ap.IndicationReport, header, payload); err != nil {
			b.Fatal(err)
		}
		if batch.Len() == batchSize {
			flush()
		}
	}
	flush()
}
