// Command bench is the repository's measured pipeline: five fixed-work
// workloads over the real layers (ran, sm, agent, e2ap, transport,
// server, ctrl, tsdb, obs, federation), composed the way
// cmd/flexric-ctrl composes them, with an oracle on every run.
//
//	go run ./bench -seed 1                      every workload, human table
//	go run ./bench -workload mon_live -trace 1  per-layer metrics + bench/out/trace-mon_live.json
//	go run ./bench -aa 5                        two interleaved sets of 5 runs, spread per cell
//
// An untraced run prints the end-to-end metrics, a traced run the
// per-layer ones; see README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks every workload to a sub-second footprint (tests).
	smoke bool
	// setups is how many times set-up is timed; the last one is kept
	// and measured on.
	setups int
	tr     *tracer
}

// result is what a workload run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	notes     []string // the first few oracle misses, for the human
	e2e       map[string]float64
	layer     map[string]float64
	// counts are the run's exact quantities: the same seed gives the
	// same counts.
	counts map[string]uint64
	info   string
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]uint64{}}
}

// check records n oracle checks of which bad failed.
func (r *result) check(n, bad int, format string, args ...any) {
	if bad > n {
		n = bad
	}
	r.attempted += n
	r.failed += bad
	if bad > 0 && len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// setE2E fills the end-to-end metrics from what the phases measured.
func (r *result) setE2E(setup float64, lat dist, paced pacedOut, rate float64, allocs, heap uint64) {
	r.e2e["setup_s"] = setup
	r.e2e["lat_ms_p50"] = lat.p50
	r.e2e["cpu_s"] = paced.cpu
	r.e2e["rate_per_s"] = rate
	r.e2e["allocs_m"] = float64(allocs) / 1e6
	r.e2e["heap_live_mb"] = float64(heap) / (1 << 20)
}

func (r *result) failPct() float64 {
	if r.attempted == 0 {
		return 100
	}
	return 100 * float64(r.failed) / float64(r.attempted)
}

// timeSetups times set-up e.setups times — build, listen, connect, E2
// setup, subscriptions, warm-up — tearing all but the last one down
// again, and returns the median in seconds.
func timeSetups(e *env, setup func() (teardown func(), err error)) (float64, error) {
	var took []float64
	for i := 0; i < e.setups; i++ {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		if i < e.setups-1 {
			teardown()
		}
	}
	return median(took), nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsOf renders the run's metrics of one kind, failing on a metric
// the run did not produce or that is not a finite number.
func metricsOf(defs []metricDef, vals map[string]float64) (map[string]metricJSON, error) {
	out := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// runWorkload runs one workload and returns its result with the
// declared metric set filled in.
func runWorkload(w workloadDef, e env) (*result, map[string]metricJSON, error) {
	if e.trace {
		e.tr = newTracer()
	}
	res, err := w.run(&e)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defs, vals := endToEnd, res.e2e
	if e.trace {
		defs, vals = perLayer, res.layer
		if err := e.tr.write(w.name); err != nil {
			return nil, nil, err
		}
	}
	ms, err := metricsOf(defs, vals)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, ms, nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 14, "length of the measured window the fixed work is sized for")
		traceOn = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
		asJSON  = flag.Bool("json", false, "print one descriptive JSON object per workload instead of the result line")
		aa      = flag.Int("aa", 0, "run two interleaved sets of N runs of every workload and print the spread per cell")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	run := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []workloadDef{w}
	}
	if *aa > 0 {
		if err := runAA(run, *aa, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "bench: seed %d, %.0f s windows, GOMAXPROCS %d, E2 over loopback TCP (%s)\n",
		*seed, *seconds, runtime.GOMAXPROCS(0), transportName)
	ok := true
	for _, w := range run {
		e := env{seed: *seed, seconds: *seconds, trace: *traceOn != 0, setups: 3}
		res, ms, err := runWorkload(w, e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printHuman(res, ms)
		correct := res.failPct() <= 1
		ok = ok && correct
		var line any
		if *asJSON {
			line = map[string]any{
				"workload": res.workload, "seed": *seed, "gomaxprocs": runtime.GOMAXPROCS(0),
				"transport": transportName, "attempted": res.attempted, "metrics": ms,
			}
		} else {
			line = map[string]any{"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": ms}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	if !ok {
		// More than one operation in a hundred missed the oracle.
		os.Exit(1)
	}
}

// transportName states how E2 travels in every workload.
const transportName = "sctpish"

// printHuman writes the run's table to standard error.
func printHuman(res *result, ms map[string]metricJSON) {
	w := os.Stderr
	fmt.Fprintf(w, "\n%s  attempted %d  failed %d (%.3f %%)\n", res.workload, res.attempted, res.failed, res.failPct())
	if res.info != "" {
		fmt.Fprintf(w, "  %s\n", res.info)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  oracle: %s\n", n)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	keys := make([]string, 0, len(res.counts))
	for k := range res.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, res.counts[k]))
	}
	fmt.Fprintf(w, "  counts: %s\n", strings.Join(parts, " "))
}
