// Package experiments implements the paper's evaluation (§5 and §6):
// every table and figure has a function that reproduces its workload and
// returns the rows/series the paper reports. The cmd/flexric-bench CLI
// prints them; the repository-root benchmarks run reduced versions.
//
// Absolute numbers differ from the paper's i7/Xeon + RF testbed — the
// substrate here is a simulator (see DESIGN.md) — but the comparisons
// (who wins, by roughly what factor, where crossovers fall) are the
// reproduction targets, recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/metrics"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/telemetry"
)

// ResetTelemetry clears accumulated telemetry so an experiment reads
// only its own numbers.
func ResetTelemetry() { telemetry.Reset() }

// TelemetryReport renders the telemetry accumulated since the last
// reset — the same counters and histograms the root benchmarks and the
// example binaries print (see docs/OBSERVABILITY.md for the row
// catalogue).
func TelemetryReport() string {
	var sb strings.Builder
	_ = telemetry.Dump(&sb)
	return sb.String()
}

// StartServer brings up a FlexRIC server on a loopback port.
func StartServer(scheme e2ap.Scheme) (*server.Server, string, error) {
	s := server.New(server.Config{Scheme: scheme})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return s, addr, nil
}

// Saturate attaches a saturating downlink source to a UE.
func Saturate(cell *ran.Cell, rnti uint16) error {
	return cell.AddTraffic(rnti, &ran.Saturating{
		Flow:           ran.FiveTuple{DstIP: uint32(rnti), DstPort: 5001, Proto: ran.ProtoUDP},
		RateBytesPerMS: 4 * ran.CellCapacityBits(cell.Config().NumRB, ran.MaxMCS) / 8,
	})
}

// nvsSlices is an NVS layout of capacity slices with PF UE scheduling,
// one per share, numbered from first.
func nvsSlices(noSharing bool, first uint32, shares ...float64) ctrl.SliceConfigJSON {
	cfg := ctrl.SliceConfigJSON{Algo: "nvs"}
	for i, share := range shares {
		cfg.Slices = append(cfg.Slices, ctrl.SliceParamJSON{ID: first + uint32(i), Kind: "capacity",
			Capacity: share, NoSharing: noSharing, UESched: "pf"})
	}
	return cfg
}

// WaitUntil polls cond until it holds or the deadline passes.
func WaitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// Table renders rows as an aligned text table.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

// Mbps formats a bit count over a window as Mbit/s.
func Mbps(bits uint64, ms int64) float64 {
	if ms <= 0 {
		return 0
	}
	return float64(bits) / float64(ms) * 1000 / 1e6
}

// closers is a cleanup list: what an experiment brings up is added in
// order and closed in reverse. A list's close is itself a closer.
type closers []func() error

func (c *closers) add(f func() error) { *c = append(*c, f) }

func (c *closers) close() error {
	for i := len(*c) - 1; i >= 0; i-- {
		_ = (*c)[i]()
	}
	return nil
}

// interleaveRounds is how many rounds roundRobin takes over the
// configurations of one figure.
const interleaveRounds = 10

// roundRobin runs every step once per round, rounds times, and returns
// the process CPU and wall time summed per step. Interleaving the
// configurations lets load from elsewhere fall on every one alike.
func roundRobin(rounds int, steps []func()) (cpu, wall []time.Duration) {
	cpu, wall = make([]time.Duration, len(steps)), make([]time.Duration, len(steps))
	for i := 0; i < rounds; i++ {
		for k, step := range steps {
			m := metrics.StartCPU()
			step()
			c, w := m.Sample()
			cpu[k] += c
			wall[k] += w
		}
	}
	return cpu, wall
}
