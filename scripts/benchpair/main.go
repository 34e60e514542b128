// Command benchpair runs the benchmark of two builds in alternating
// pairs and prints, per workload and end-to-end metric, each side's
// median and quartiles, the change of the median and in how many pairs
// the second build read better. scripts/benchpair.sh builds the two
// binaries and runs it; see docs/PERFORMANCE.md §"Running the suite".
//
//	go run ./scripts/benchpair -ref A -head B -n 10 -- [bench args]
//
// Run it from the repository root: it reads BENCHMARK.json there and
// keeps every run's standard output and standard error in
// .bench_build/pairs. It exits 1 when a run fails, when the counts:
// lines of one workload differ between runs, or when a head median is
// worse than the ref median by more than the metric's BENCHMARK.json
// bound.
//
//	go run ./scripts/benchpair -check BENCH_TRAJECTORY.json -head B
//
// instead runs every workload once through B with the trajectory
// file's small check footprint and exits 1 unless each counts: line
// and allocs_m match the file (check.go); scripts/verify.sh runs it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json this command reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is one run of one workload on one side.
type result struct {
	metrics map[string]float64
	counts  string
	failure string // why the run does not count, or ""
}

func main() {
	refBin := flag.String("ref", "", "benchmark binary of the reference build")
	headBin := flag.String("head", "", "benchmark binary of the change")
	n := flag.Int("n", 10, "number of pairs")
	checkFile := flag.String("check", "", "trajectory file: check -head's counts and allocs_m against it instead of pairing")
	flag.Parse()
	if *headBin == "" || (*checkFile == "" && (*refBin == "" || *n < 1)) {
		fmt.Fprintln(os.Stderr, "usage: benchpair -ref BIN -head BIN -n N -- [bench args]\n       benchpair -check FILE -head BIN")
		os.Exit(2)
	}
	var sp spec
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(2)
	}
	if *checkFile != "" {
		if !check(*checkFile, *headBin, sp) {
			os.Exit(1)
		}
		return
	}
	const out = ".bench_build/pairs"
	workloads, args := splitWorkload(flag.Args())
	if len(workloads) == 0 {
		for _, w := range sp.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(2)
	}

	sides := [2]struct{ name, bin string }{{"ref", *refBin}, {"head", *headBin}}
	runs := map[string]*[2][]result{}
	for _, w := range workloads {
		runs[w] = &[2][]result{}
	}
	for i := 0; i < *n; i++ {
		for _, w := range workloads {
			// Alternate which side runs first, so that the box drifting
			// over a long run does not favour one side.
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, s := range order {
				base := filepath.Join(out, fmt.Sprintf("%s-%s-%02d", w, sides[s].name, i+1))
				r := runOnce(sides[s].bin, append(slices.Clone(args), "-workload", w), base)
				fmt.Fprintf(os.Stderr, "pair %d/%d %-12s %-4s %s\n", i+1, *n, w, sides[s].name, summary(r))
				runs[w][s] = append(runs[w][s], r)
			}
		}
	}

	bad := false
	fmt.Printf("%d alternating pairs, bench args %q\n\n", *n, args)
	fmt.Println("| workload | metric | ref, median (quartiles) | head, median (quartiles) | Δ median | head better |")
	fmt.Println("|---|---|---|---|---|---|")
	var notes []string
	for _, w := range workloads {
		rs := runs[w]
		for _, m := range sp.EndToEnd {
			ref, head := values(rs[0], m.Name), values(rs[1], m.Name)
			if len(ref) == 0 || len(head) == 0 {
				continue
			}
			rm, hm := quantile(ref, 0.5), quantile(head, 0.5)
			better := 0
			for j := 0; j < min(len(rs[0]), len(rs[1])); j++ {
				r, h := rs[0][j].metrics[m.Name], rs[1][j].metrics[m.Name]
				if (m.Better == "lower" && h < r) || (m.Better == "higher" && h > r) {
					better++
				}
			}
			delta := (hm - rm) / rm
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			mark := ""
			if worse > m.Bound {
				mark = " **past bound**"
				bad = true
				notes = append(notes, fmt.Sprintf("%s %s: head median %s is %.1f %% worse than ref %s (bound %.0f %%)",
					w, m.Name, num(hm), 100*worse, num(rm), 100*m.Bound))
			}
			fmt.Printf("| `%s` | `%s` | %s | %s | %+.1f %%%s | %d/%d |\n", w, m.Name,
				spread(ref), spread(head), 100*delta, mark, better, min(len(rs[0]), len(rs[1])))
		}
		var counts []string
		for s := range sides {
			for j, r := range rs[s] {
				if r.failure != "" {
					bad = true
					notes = append(notes, fmt.Sprintf("%s %s run %d: %s", w, sides[s].name, j+1, r.failure))
				}
				if r.counts != "" && !slices.Contains(counts, r.counts) {
					counts = append(counts, r.counts)
				}
			}
		}
		if len(counts) > 1 {
			bad = true
			notes = append(notes, fmt.Sprintf("%s: counts lines differ between runs:\n  %s", w, strings.Join(counts, "\n  ")))
		}
	}
	fmt.Println()
	for _, note := range notes {
		fmt.Println("benchpair:", note)
	}
	fmt.Printf("run output kept in %s\n", out)
	if bad {
		os.Exit(1)
	}
}

// splitWorkload removes a -workload/--workload flag (either form) from
// the bench arguments and returns the workloads it named; none, or
// "all", means every workload of BENCHMARK.json.
func splitWorkload(args []string) (workloads, rest []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, value, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !strings.HasPrefix(a, "-") || name != "workload" {
			rest = append(rest, a)
			continue
		}
		if !hasValue && i+1 < len(args) {
			i++
			value = args[i]
		}
		if value != "all" && value != "" {
			workloads = append(workloads, value)
		}
	}
	return workloads, rest
}

// runOnce runs one benchmark invocation, keeps its output in base.out
// and base.err, and reads back the result line and the counts: line.
func runOnce(bin string, args []string, base string) result {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	_ = os.WriteFile(base+".out", stdout.Bytes(), 0o644) // best effort: the table is the result
	_ = os.WriteFile(base+".err", stderr.Bytes(), 0o644)

	r := result{metrics: map[string]float64{}}
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		r.failure = fmt.Sprintf("no result line (%v; exit %v)", err, runErr)
		return r
	}
	for k, v := range line.Metrics {
		r.metrics[k] = v.Value
	}
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); strings.HasPrefix(t, "counts:") {
			r.counts = t
		}
	}
	switch {
	case runErr != nil:
		r.failure = fmt.Sprintf("exit %v, %d of %d operations failed", runErr, line.Failed, line.Attempted)
	case line.Failed > 0 || !line.Correct:
		r.failure = fmt.Sprintf("%d of %d operations failed", line.Failed, line.Attempted)
	}
	return r
}

func summary(r result) string {
	if r.failure != "" {
		return "FAILED: " + r.failure
	}
	return fmt.Sprintf("lat_ms_p50 %s cpu_s %s allocs_m %s", num(r.metrics["lat_ms_p50"]), num(r.metrics["cpu_s"]), num(r.metrics["allocs_m"]))
}

// values returns the metric's value in every run that produced it.
func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.metrics[name]; ok {
			v = append(v, x)
		}
	}
	return v
}

// quantile interpolates linearly between the closest ranks of the
// sorted values (q = 0.25, 0.5, 0.75 for the quartiles and median).
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func spread(v []float64) string {
	return fmt.Sprintf("%s (%s–%s)", num(quantile(v, 0.5)), num(quantile(v, 0.25)), num(quantile(v, 0.75)))
}

// num prints four significant digits, and whole numbers with thousands
// separators from 10 000 up.
func num(x float64) string {
	if math.Abs(x) < 1e4 {
		return strconv.FormatFloat(x, 'g', 4, 64)
	}
	s := strconv.FormatInt(int64(math.Round(x)), 10)
	var b strings.Builder
	for i, c := range s {
		if i > 0 && (len(s)-i)%3 == 0 && s[i-1] != '-' {
			b.WriteByte(',')
		}
		b.WriteRune(c)
	}
	return b.String()
}
