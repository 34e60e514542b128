package main

import (
	"slices"
	"testing"

	"flexric/internal/ran"
	"flexric/internal/station"
)

// TestSMBundle pins the agent's eight service models: their RAN
// function IDs and the order they are registered and ticked in.
func TestSMBundle(t *testing.T) {
	// MAC, RLC, PDCP, slice control, traffic control, RRC, KPM, HW.
	want := []uint16{142, 143, 144, 145, 146, 148, 147, 140}
	if !slices.Equal(smIDs, want) {
		t.Fatalf("smIDs = %v, want %v", smIDs, want)
	}
	bs, err := station.New(station.Spec{Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SMs: smIDs})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	var got []uint16
	for _, fn := range bs.Fns {
		got = append(got, fn.Definition().ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
}
