// flexric-bench regenerates every table and figure of the paper's
// evaluation (§5, §6). Each subcommand reproduces one experiment and
// prints the rows/series the paper reports; `all` runs everything.
//
//	flexric-bench fig6a  [-sim 10000]
//	flexric-bench fig6b  [-sim 5000]
//	flexric-bench fig7a  [-n 200]
//	flexric-bench fig7b
//	flexric-bench fig8a  [-agents 10] [-dur 5s]
//	flexric-bench fig8b  [-dur 3s]
//	flexric-bench table2
//	flexric-bench fig9a  [-n 200]
//	flexric-bench fig9b  [-agents 10] [-dur 5s]
//	flexric-bench fig11  [-sim 60000]
//	flexric-bench fig13a [-phase 15000]
//	flexric-bench fig13b [-sim 60000]
//	flexric-bench fig15  [-sim 50000]
//	flexric-bench all    (reduced scale)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flexric/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	sim := fs.Int("sim", 0, "simulated duration in ms (0 = experiment default)")
	n := fs.Int("n", 200, "ping count per configuration")
	agents := fs.Int("agents", 10, "dummy agent count")
	dur := fs.Duration("dur", 5*time.Second, "measurement window")
	phase := fs.Int("phase", 15000, "per-phase simulated ms (fig13a)")
	tel := fs.Bool("telemetry", false, "print the telemetry snapshot after each experiment")
	_ = fs.Parse(os.Args[2:])

	simOr := func(def int) int {
		if *sim > 0 {
			return *sim
		}
		return def
	}

	run := func(name string, f func() (fmt.Stringer, error)) {
		if *tel {
			experiments.ResetTelemetry()
		}
		start := time.Now()
		res, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		if *tel {
			fmt.Printf("--- telemetry (%s) ---\n%s\n", name, experiments.TelemetryReport())
		}
	}

	experimentsByName := map[string]func(){
		"fig6a": func() {
			run("fig6a", func() (fmt.Stringer, error) { return experiments.Fig6a(simOr(10000)) })
		},
		"fig6b": func() {
			run("fig6b", func() (fmt.Stringer, error) {
				return experiments.Fig6b([]int{1, 2, 4, 8, 16, 24, 32}, simOr(5000))
			})
		},
		"fig7a": func() {
			run("fig7a", func() (fmt.Stringer, error) { return experiments.Fig7a(*n, nil) })
		},
		"fig7b": func() {
			run("fig7b", func() (fmt.Stringer, error) { return experiments.Fig7b(nil) })
		},
		"fig8a": func() {
			run("fig8a", func() (fmt.Stringer, error) { return experiments.Fig8a(*agents, *dur) })
		},
		"fig8b": func() {
			run("fig8b", func() (fmt.Stringer, error) {
				return experiments.Fig8b([]int{1, 4, 8, 12, 16, 18}, *dur)
			})
		},
		"table2": func() {
			run("table2", func() (fmt.Stringer, error) { return experiments.Table2(nil) })
		},
		"fig9a": func() {
			run("fig9a", func() (fmt.Stringer, error) { return experiments.Fig9a(*n, nil) })
		},
		"fig9b": func() {
			run("fig9b", func() (fmt.Stringer, error) { return experiments.Fig9b(*agents, *dur) })
		},
		"fig11": func() {
			run("fig11", func() (fmt.Stringer, error) { return experiments.Fig11(simOr(60000)) })
		},
		"fig13a": func() {
			run("fig13a", func() (fmt.Stringer, error) { return experiments.Fig13a(*phase) })
		},
		"fig13b": func() {
			run("fig13b", func() (fmt.Stringer, error) { return experiments.Fig13b(simOr(60000)) })
		},
		"fig15": func() {
			run("fig15", func() (fmt.Stringer, error) { return experiments.Fig15(simOr(50000)) })
		},
	}

	switch cmd {
	case "all":
		// Reduced scale for a complete sweep in minutes.
		run("fig6a", func() (fmt.Stringer, error) { return experiments.Fig6a(3000) })
		run("fig6b", func() (fmt.Stringer, error) {
			return experiments.Fig6b([]int{1, 8, 32}, 3000)
		})
		run("fig7a", func() (fmt.Stringer, error) { return experiments.Fig7a(100, nil) })
		run("fig7b", func() (fmt.Stringer, error) { return experiments.Fig7b(nil) })
		run("fig8a", func() (fmt.Stringer, error) { return experiments.Fig8a(6, 3*time.Second) })
		run("fig8b", func() (fmt.Stringer, error) {
			return experiments.Fig8b([]int{2, 6, 10}, 2*time.Second)
		})
		run("table2", func() (fmt.Stringer, error) { return experiments.Table2(nil) })
		run("fig9a", func() (fmt.Stringer, error) { return experiments.Fig9a(100, nil) })
		run("fig9b", func() (fmt.Stringer, error) { return experiments.Fig9b(6, 3*time.Second) })
		run("fig11", func() (fmt.Stringer, error) { return experiments.Fig11(40000) })
		run("fig13a", func() (fmt.Stringer, error) { return experiments.Fig13a(8000) })
		run("fig13b", func() (fmt.Stringer, error) { return experiments.Fig13b(30000) })
		run("fig15", func() (fmt.Stringer, error) { return experiments.Fig15(30000) })
	default:
		f, ok := experimentsByName[cmd]
		if !ok {
			usage()
			os.Exit(2)
		}
		f()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: flexric-bench <experiment> [flags]

experiments:
  fig6a   agent CPU overhead, radio deployments (4G/5G)
  fig6b   agent CPU vs number of UEs (L2 simulator)
  fig7a   E2SM-HW ping RTT by encoding combination
  fig7b   signaling rate by encoding combination
  fig8a   controller CPU/memory vs FlexRAN
  fig8b   controller CPU vs number of agents (ASN vs FB)
  table2  deployment artifact sizes
  fig9a   two-hop RTT vs O-RAN RIC
  fig9b   monitoring CPU/memory vs O-RAN RIC
  fig11   traffic control: bufferbloat vs TC xApp
  fig13a  slicing isolation timeline
  fig13b  static slicing vs NVS sharing
  fig15   recursive slicing: dedicated vs shared infrastructure
  all     everything, reduced scale`)
}
