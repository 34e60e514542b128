package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkDecl is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDecl(t *testing.T) benchmarkDecl {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkDecl
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func smokeEnv(trace bool) env {
	return env{seed: 7, seconds: 0.6, trace: trace, smoke: true, setups: 1}
}

// TestDeclaredCells checks that BENCHMARK.json names exactly the
// workloads and metrics the harness emits.
func TestDeclaredCells(t *testing.T) {
	d := readDecl(t)
	var names, have []string
	for _, w := range d.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		have = append(have, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, have)
	}
	same := func(kind string, decl []declMetric, defs []metricDef) {
		var a, b []declMetric
		a = append(a, decl...)
		for _, m := range defs {
			b = append(b, declMetric{m.name, m.unit})
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("BENCHMARK.json %s metrics %v, harness emits %v", kind, a, b)
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
}

// TestSmoke runs every workload at a tiny footprint, untraced and
// traced: the oracle passes and every declared metric comes out once,
// finite, with its unit. No timing is asserted.
func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, ms, err := runWorkload(w, smokeEnv(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed the oracle: %v", w.name, traced, res.failed, res.attempted, res.notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(ms) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(ms), len(defs))
			}
			for _, d := range defs {
				m, ok := ms[d.name]
				if !ok || m.Unit != d.unit || !nameRE.MatchString(d.name) {
					t.Errorf("%s traced=%v: metric %q: got %+v, want unit %q", w.name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestDeterminism runs every workload twice with one seed: the counts
// of operations attempted and of bytes on the wire are identical
// (fed_query, whose stepper the wall clock paces, repeats per round).
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, _, err := runWorkload(w, smokeEnv(false))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := runWorkload(w, smokeEnv(false))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.counts) == 0 || !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: two runs of seed 7 differ: counts %v vs %v", w.name, a.counts, b.counts)
		}
	}
}
