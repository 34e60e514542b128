package ctrl

import (
	"strings"
	"testing"

	"flexric/internal/sm"
)

// TestSliceControlFromJSON covers the REST-body-to-SM translation,
// including every validation error path.
func TestSliceControlFromJSON(t *testing.T) {
	t.Run("disable", func(t *testing.T) {
		ctl, err := SliceControlFromJSON(&SliceConfigJSON{Algo: "none"})
		if err != nil || ctl.Op != sm.OpDisableSlicing {
			t.Fatalf("ctl %+v err %v", ctl, err)
		}
	})

	t.Run("capacity and default kind", func(t *testing.T) {
		ctl, err := SliceControlFromJSON(&SliceConfigJSON{
			Algo: "nvs",
			Slices: []SliceParamJSON{
				{ID: 1, Kind: "capacity", Capacity: 0.66, UESched: "pf"},
				{ID: 2, Capacity: 0.34}, // empty kind defaults to capacity
			},
		})
		if err != nil || ctl.Op != sm.OpConfigureSlices || len(ctl.Slices) != 2 {
			t.Fatalf("ctl %+v err %v", ctl, err)
		}
		if ctl.Slices[0].Kind != 0 || ctl.Slices[0].CapacityQ != 660_000 || ctl.Slices[0].UESched != "pf" {
			t.Fatalf("slice 0: %+v", ctl.Slices[0])
		}
		if ctl.Slices[1].Kind != 0 || ctl.Slices[1].CapacityQ != 340_000 {
			t.Fatalf("slice 1: %+v", ctl.Slices[1])
		}
	})

	t.Run("rate kind", func(t *testing.T) {
		ctl, err := SliceControlFromJSON(&SliceConfigJSON{
			Algo:   "nvs",
			Slices: []SliceParamJSON{{ID: 3, Kind: "rate", RateRsv: 1.5, RateRef: 6.0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := ctl.Slices[0]
		if s.Kind != 1 || s.RateRsv != 1.5 || s.RateRef != 6.0 || s.CapacityQ != 0 {
			t.Fatalf("slice: %+v", s)
		}
	})

	t.Run("unknown algo", func(t *testing.T) {
		_, err := SliceControlFromJSON(&SliceConfigJSON{Algo: "static"})
		if err == nil || !strings.Contains(err.Error(), `unknown algo "static"`) {
			t.Fatalf("err %v", err)
		}
	})

	t.Run("unknown kind", func(t *testing.T) {
		_, err := SliceControlFromJSON(&SliceConfigJSON{
			Algo:   "nvs",
			Slices: []SliceParamJSON{{ID: 1, Kind: "weighted"}},
		})
		if err == nil || !strings.Contains(err.Error(), `unknown slice kind "weighted"`) {
			t.Fatalf("err %v", err)
		}
	})
}
