package a1

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"flexric/internal/snapfile"
)

func snapPolicy(id string, agent int) Policy {
	return Policy{
		ID: id, TypeID: TypeSliceSLA, Agent: agent, WindowMS: 500,
		Targets: []SliceTarget{{SliceID: 1, MinThroughputMbps: 40}},
	}
}

// TestSnapshotRoundTrip: policies, statuses, and the version counter
// survive a save/load cycle, and post-restore versions keep ascending.
func TestSnapshotRoundTrip(t *testing.T) {
	st := NewStore()
	if _, err := st.Create(snapPolicy("gold", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(snapPolicy("silver", 1)); err != nil {
		t.Fatal(err)
	}
	// Bump silver to version 3 and record a verdict.
	if _, err := st.Update("silver", snapPolicy("silver", 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.SetStatus("gold", StatusViolated, "slice 1 throughput low"); !ok {
		t.Fatal("set status")
	}

	path := filepath.Join(t.TempDir(), "a1.snap")
	if err := snapfile.Save(st, path); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := snapfile.Load(restored, path); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.List(), restored.List()) {
		t.Fatalf("restored store differs:\n orig %+v\n rest %+v", st.List(), restored.List())
	}
	got, ok := restored.Get("gold")
	if !ok || got.Status != StatusViolated || got.Reason != "slice 1 throughput low" {
		t.Fatalf("gold state: %+v", got)
	}

	// The version counter carried over: the next mutation is version 4,
	// not a reused 1.
	ns, err := restored.Create(snapPolicy("bronze", 2))
	if err != nil {
		t.Fatal(err)
	}
	if ns.Policy.Version != 4 {
		t.Fatalf("post-restore version = %d, want 4", ns.Policy.Version)
	}
}

// TestSnapshotMissingAndCorrupt: a missing file is a fresh start, any
// byte flip in the payload fails the CRC.
func TestSnapshotMissingAndCorrupt(t *testing.T) {
	st := NewStore()
	if err := snapfile.Load(st, filepath.Join(t.TempDir(), "absent.snap")); err != nil {
		t.Fatalf("missing snapshot must be a fresh start: %v", err)
	}
	if _, err := st.Create(snapPolicy("p", 0)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, at := range []int{5, 9, len(b) / 2, len(b) - 5} {
		bad := append([]byte(nil), b...)
		bad[at] ^= 0x40
		if err := NewStore().ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("flip at %d: err = %v, want ErrSnapshotFormat", at, err)
		}
	}
	// Truncation at every point fails too.
	for cut := 1; cut < len(b); cut += 7 {
		if err := NewStore().ReadSnapshot(bytes.NewReader(b[:cut])); !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("truncate at %d: err = %v", cut, err)
		}
	}
	// The intact stream still loads.
	if err := NewStore().ReadSnapshot(bytes.NewReader(b)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotEvery: the loop writes the final snapshot on stop.
func TestSnapshotEvery(t *testing.T) {
	st := NewStore()
	if _, err := st.Create(snapPolicy("p", 0)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a1.snap")
	stop := make(chan struct{})
	done := snapfile.Every(st, path, time.Hour, stop, nil)
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot loop did not stop")
	}
	restored := NewStore()
	if err := snapfile.Load(restored, path); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 1 {
		t.Fatalf("restored %d policies, want 1", restored.Len())
	}
}
