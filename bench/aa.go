package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"flexric/internal/metrics"
)

// A/A mode (-aa N): two sets of N runs of this same binary, interleaved
// A B A B ..., every run a fresh process with its own seed. For every
// cell (workload × end-to-end metric) it prints both medians, both
// inter-quartile ranges as a share of the median, and the bound
// BENCHMARK.json declares. A cell is steady when the medians differ by
// less than the bound and neither spread exceeds it.

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles of Python's
// statistics.quantiles(v, n=4) (exclusive method), which the driver
// uses.
func quartileSpread(v []float64) (med, spread float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			i = 1
		}
		if i > len(s)-1 {
			i = len(s) - 1
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	med = metrics.PercentileFloats(s, 50)
	if len(s) < 2 || med == 0 {
		return med, 0
	}
	return med, (q(3) - q(1)) / med
}

func runAA(run []workloadDef, n int, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name], better[m.Name] = m.Bound, m.Better
		}
	}
	// vals[set][workload][metric] are the runs' values.
	vals := [2]map[string]map[string][]float64{{}, {}}
	failed := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for _, w := range run {
			for set := 0; set < 2; set++ {
				s := seed + int64(2*i+set)
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, s, err)
				}
				var line runLine
				if err := json.Unmarshal(out, &line); err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, s, err)
				}
				failed += line.Failed
				if vals[set][w.name] == nil {
					vals[set][w.name] = map[string][]float64{}
				}
				for name, m := range line.Metrics {
					vals[set][w.name][name] = append(vals[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: run %d set %c %s done (%.0f s elapsed)\n", i+1, 'A'+set, w.name, time.Since(t0).Seconds())
			}
		}
	}
	fmt.Printf("Two interleaved sets of %d runs, -seconds %g, seeds %d.., operations failed: %d.\n\n", n, seconds, seed, failed)
	fmt.Println("| workload | metric | median A | median B | B vs A | IQR/median A | IQR/median B | bound | steady |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range run {
		for _, d := range endToEnd {
			medA, spA := quartileSpread(vals[0][w.name][d.name])
			medB, spB := quartileSpread(vals[1][w.name][d.name])
			diff := ratio(medB-medA, medA)
			bound, known := bounds[d.name]
			steady := "-"
			if known {
				worse := diff
				if better[d.name] == "higher" {
					worse = -diff
				}
				steady = "yes"
				// The driver does not hold set-up time's spread to its bound.
				if worse > bound || (d.name != "setup_s" && (spA > bound || spB > bound)) {
					steady = "NO"
				}
			}
			fmt.Printf("| %s | %s (%s) | %.4f | %.4f | %+.1f %% | %.1f %% | %.1f %% | %.0f %% | %s |\n",
				w.name, d.name, d.unit, medA, medB, 100*diff, 100*spA, 100*spB, 100*bound, steady)
		}
	}
	return nil
}
