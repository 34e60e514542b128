package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// trajectory is the part of BENCH_TRAJECTORY.json the -check mode reads.
type trajectory struct {
	Check struct {
		Args        []string `json:"args"`
		GOMAXPROCS  int      `json:"gomaxprocs"`
		AllocsSlack float64  `json:"allocs_m_slack"`
		AllocsFloor float64  `json:"allocs_m_floor"`
		Workloads   map[string]struct {
			Counts  string  `json:"counts"`
			AllocsM float64 `json:"allocs_m"`
		} `json:"workloads"`
	} `json:"check"`
}

// check runs every workload of BENCHMARK.json once through bin with the
// trajectory file's check arguments. A workload passes when its run
// completes every operation, its counts: line equals the committed one
// and its allocs_m lies within the committed slack of the committed
// value, or within the absolute floor where that is wider, in either
// direction: a change that moves a count records the new one in the
// file. Counts and allocations do not read a clock, so the check holds
// on a busy box.
func check(file, bin string, sp spec) bool {
	var tr trajectory
	b, err := os.ReadFile(file)
	if err == nil {
		err = json.Unmarshal(b, &tr)
	}
	if err == nil && tr.Check.GOMAXPROCS > 0 {
		err = os.Setenv("GOMAXPROCS", strconv.Itoa(tr.Check.GOMAXPROCS))
	}
	const out = ".bench_build/check"
	if err == nil {
		err = os.MkdirAll(out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		return false
	}
	ok := true
	for _, w := range sp.Workloads {
		want, found := tr.Check.Workloads[w.Name]
		if !found {
			fmt.Printf("%-12s FAIL: no expectation in %s\n", w.Name, file)
			ok = false
			continue
		}
		r := runOnce(bin, append(slices.Clone(tr.Check.Args), "-workload", w.Name), filepath.Join(out, w.Name))
		got := strings.TrimSpace(strings.TrimPrefix(r.counts, "counts:"))
		allocs := r.metrics["allocs_m"]
		var bad []string
		if r.failure != "" {
			bad = append(bad, r.failure)
		}
		if got != want.Counts {
			bad = append(bad, fmt.Sprintf("counts %q, committed %q", got, want.Counts))
		}
		if tol := max(tr.Check.AllocsSlack*want.AllocsM, tr.Check.AllocsFloor); math.Abs(allocs-want.AllocsM) > tol {
			bad = append(bad, fmt.Sprintf("allocs_m %s, committed %s ± %s", num(allocs), num(want.AllocsM), num(tol)))
		}
		if len(bad) > 0 {
			ok = false
			fmt.Printf("%-12s FAIL: %s\n", w.Name, strings.Join(bad, "; "))
			continue
		}
		fmt.Printf("%-12s ok   allocs_m %s (committed %s), counts %s\n", w.Name, num(allocs), num(want.AllocsM), got)
	}
	fmt.Printf("run output kept in %s\n", out)
	return ok
}
