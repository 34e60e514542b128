package experiments

import (
	"fmt"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/sm"
)

// Fig. 8: "CPU usage at the controller" (§5.3). The FlexRIC controller
// is the server library plus a statistics iApp storing incoming messages
// in memory; the comparison is FlexRAN's controller with a 1 ms polling
// application. Dummy test agents export a 32-UE MAC report per
// millisecond.

// Fig8aResult is the Fig. 8a dataset.
type Fig8aResult struct {
	FlexRICCPU float64 // normalized CPU %
	FlexRANCPU float64
	FlexRICMem float64 // MB of controller state
	FlexRANMem float64
	Agents     int
	Duration   time.Duration
}

// Fig8a reproduces Fig. 8a with the given number of dummy agents and
// measurement duration, one controller after the other: each also
// reports its heap growth, which cannot be split between controllers
// that are up at the same time.
func Fig8a(agents int, d time.Duration) (*Fig8aResult, error) {
	res := &Fig8aResult{Agents: agents, Duration: d}
	// FlexRIC: server library + raw-storing monitor, FB encoding.
	flexric, err := flexricRig(e2ap.SchemeFB, sm.SchemeFB, agents)
	if err != nil {
		return nil, err
	}
	if res.FlexRICCPU, res.FlexRICMem, err = flexric.measure(d); err != nil {
		return nil, err
	}
	flexran, err := flexranRig(agents)
	if err != nil {
		return nil, err
	}
	if res.FlexRANCPU, res.FlexRANMem, err = flexran.measure(d); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the Fig. 8a table.
func (r *Fig8aResult) String() string {
	rows := [][]string{
		{"FlexRIC", fmt.Sprintf("%.2f", r.FlexRICCPU), fmt.Sprintf("%.1f", r.FlexRICMem)},
		{"FlexRAN", fmt.Sprintf("%.2f", r.FlexRANCPU), fmt.Sprintf("%.1f", r.FlexRANMem)},
	}
	return fmt.Sprintf("Fig 8a — controller CPU/memory, %d agents x 32 UEs @1ms, %v\n",
		r.Agents, r.Duration) +
		Table([]string{"controller", "CPU %", "state MB"}, rows)
}

// Fig8bPoint is one x-position of Fig. 8b.
type Fig8bPoint struct {
	Agents int
	CPU    float64
}

// Fig8bResult holds both series of Fig. 8b.
type Fig8bResult struct {
	ASN      []Fig8bPoint
	FB       []Fig8bPoint
	Duration time.Duration
}

// Fig8b reproduces Fig. 8b: controller CPU over the number of dummy
// agents, with ASN.1-style vs FB-style E2AP encoding. The SM payload
// stays FB, isolating the E2AP dispatch cost as in the paper. Every
// (scheme, agents) controller is up at once; the driver loads one at a
// time, round robin in interleaveRounds windows of d/interleaveRounds,
// and sums CPU and wall time per controller.
func Fig8b(agentCounts []int, d time.Duration) (*Fig8bResult, error) {
	if len(agentCounts) == 0 {
		agentCounts = []int{1, 4, 8, 12, 16, 18}
	}
	var cl closers
	defer cl.close()
	var steps []func()
	for _, scheme := range []e2ap.Scheme{e2ap.SchemeASN, e2ap.SchemeFB} {
		for _, n := range agentCounts {
			r, err := flexricRig(scheme, sm.SchemeFB, n)
			if err == nil {
				cl.add(r.close)
				err = r.up()
			}
			if err != nil {
				return nil, fmt.Errorf("fig8b %s/%d: %w", scheme, n, err)
			}
			steps = append(steps, func() { r.drive(d/interleaveRounds, nil) })
		}
	}
	cpu, wall := roundRobin(interleaveRounds, steps)
	res := &Fig8bResult{Duration: d}
	for i := range steps {
		p := Fig8bPoint{Agents: agentCounts[i%len(agentCounts)], CPU: 100 * float64(cpu[i]) / float64(wall[i])}
		if i < len(agentCounts) {
			res.ASN = append(res.ASN, p)
		} else {
			res.FB = append(res.FB, p)
		}
	}
	return res, nil
}

// String renders the Fig. 8b series.
func (r *Fig8bResult) String() string {
	rows := make([][]string, 0, len(r.ASN))
	for i := range r.ASN {
		fb := ""
		if i < len(r.FB) {
			fb = fmt.Sprintf("%.2f", r.FB[i].CPU)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.ASN[i].Agents),
			fmt.Sprintf("%.2f", r.ASN[i].CPU),
			fb,
		})
	}
	return fmt.Sprintf("Fig 8b — controller CPU vs dummy agents (32 UEs @1ms each), %v window\n", r.Duration) +
		Table([]string{"agents", "ASN.1 CPU %", "FB CPU %"}, rows)
}
