// Package metrics measures CPU and memory consumption of experiment
// scenarios. The paper reports normalized CPU usage (CPU time over wall
// time, normalized by cores) from OS accounting and memory from docker
// stats; this package provides the equivalents available in-process:
// getrusage-based CPU time and runtime heap statistics. It also carries
// the interpolated percentile that internal/tsdb reports with.
//
// For live counters and histograms on running SDK components, see
// internal/telemetry; this package is for offline sample sets collected
// by the harness itself.
package metrics

import (
	"runtime"
	"syscall"
	"time"
)

// ProcessCPU returns the process's cumulative user+system CPU time.
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// CPUMeter measures CPU consumption over an interval.
type CPUMeter struct {
	startCPU  time.Duration
	startWall time.Time
}

// StartCPU begins a measurement interval.
func StartCPU() *CPUMeter {
	return &CPUMeter{startCPU: ProcessCPU(), startWall: time.Now()}
}

// Sample returns the CPU time consumed and wall time elapsed since
// StartCPU.
func (m *CPUMeter) Sample() (cpu, wall time.Duration) {
	return ProcessCPU() - m.startCPU, time.Since(m.startWall)
}

// NormalizedPercent returns CPU time over wall time as a percentage of
// one core — the paper's "normalized CPU usage".
func (m *CPUMeter) NormalizedPercent() float64 {
	cpu, wall := m.Sample()
	if wall <= 0 {
		return 0
	}
	return 100 * float64(cpu) / float64(wall)
}

// HeapInUse reports live heap bytes after a GC cycle — the steady-state
// memory of the measured structures.
func HeapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// MB formats bytes as mebibytes.
func MB(b uint64) float64 { return float64(b) / (1 << 20) }

// PercentileFloats returns the p-th percentile (0..100) of a sorted
// float64 sample set with linear interpolation between adjacent order
// statistics, for the scalar series internal/tsdb aggregates.
func PercentileFloats(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 || lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
