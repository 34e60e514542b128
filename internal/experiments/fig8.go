package experiments

import (
	"fmt"
	"time"

	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/flexran"
	"flexric/internal/metrics"
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
// measurement duration.
func Fig8a(agents int, d time.Duration) (*Fig8aResult, error) {
	res := &Fig8aResult{Agents: agents, Duration: d}

	// --- FlexRIC: server library + raw-storing monitor, FB encoding ---
	var err error
	res.FlexRICCPU, res.FlexRICMem, err = flexricMonitor(e2ap.SchemeFB, sm.SchemeFB, agents, d)
	if err != nil {
		return nil, err
	}

	// --- FlexRAN: controller + RIB + 1 ms polling application ---
	{
		fc, addr, err := flexran.NewController("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		memBase := metrics.HeapInUse()
		var fdummies []*flexranDummy
		for i := 0; i < agents; i++ {
			fd, err := startFlexRANDummy(uint64(i+1), addr, 32, time.Millisecond)
			if err != nil {
				fc.Close()
				return nil, err
			}
			fdummies = append(fdummies, fd)
		}
		if !WaitUntil(waitShort, func() bool { return len(fc.Agents()) == agents }) {
			fc.Close()
			return nil, fmt.Errorf("flexran agents missing")
		}
		for i := 0; i < agents; i++ {
			if err := fc.RequestStats(uint64(i+1), 1, flexran.FlagMAC); err != nil {
				fc.Close()
				return nil, err
			}
		}
		// FlexRAN applications poll every 1 ms.
		stopPoll := make(chan struct{})
		pollDone := make(chan uint64, 1)
		go func() { pollDone <- fc.PollLoop(time.Millisecond, stopPoll) }()
		time.Sleep(100 * time.Millisecond) // warm-up
		m := metrics.StartCPU()
		time.Sleep(d)
		res.FlexRANCPU = m.NormalizedPercent()
		res.FlexRANMem = heapSinceMB(memBase)
		close(stopPoll)
		<-pollDone
		for _, fd := range fdummies {
			fd.Close()
		}
		fc.Close()
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

// flexranDummy is the FlexRAN-protocol equivalent of DummyAgent.
type flexranDummy struct {
	a    *fakeFlexRANAgent
	stop chan struct{}
	done chan struct{}
}

func startFlexRANDummy(bsID uint64, addr string, nUE int, period time.Duration) (*flexranDummy, error) {
	a, err := newFakeFlexRANAgent(bsID, nUE, addr)
	if err != nil {
		return nil, err
	}
	d := &flexranDummy{a: a, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		t := time.NewTicker(period)
		defer t.Stop()
		now := int64(0)
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				now++
				a.tick(now)
			}
		}
	}()
	return d, nil
}

func (d *flexranDummy) Close() {
	close(d.stop)
	<-d.done
	d.a.close()
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
// stays FB, isolating the E2AP dispatch cost as in the paper.
func Fig8b(agentCounts []int, d time.Duration) (*Fig8bResult, error) {
	if len(agentCounts) == 0 {
		agentCounts = []int{1, 4, 8, 12, 16, 18}
	}
	res := &Fig8bResult{Duration: d}
	for _, scheme := range []e2ap.Scheme{e2ap.SchemeASN, e2ap.SchemeFB} {
		for _, n := range agentCounts {
			cpu, _, err := flexricMonitor(scheme, sm.SchemeFB, n, d)
			if err != nil {
				return nil, fmt.Errorf("fig8b %s/%d: %w", scheme, n, err)
			}
			p := Fig8bPoint{Agents: n, CPU: cpu}
			if scheme == e2ap.SchemeASN {
				res.ASN = append(res.ASN, p)
			} else {
				res.FB = append(res.FB, p)
			}
		}
	}
	return res, nil
}

// flexricMonitor runs the FlexRIC controller of Figs. 8 and 9: the
// server library plus a raw-storing MAC monitor, fed by agents dummy
// agents that each export a 32-UE MAC report per millisecond. Once ten
// indications per agent have arrived it measures for d and returns the
// normalized CPU % and the controller state grown since the agents
// started, in MB.
func flexricMonitor(e2s e2ap.Scheme, sms sm.Scheme, agents int, d time.Duration) (cpu, mb float64, err error) {
	srv, addr, err := StartServer(e2s)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: sms, PeriodMS: 1, Layers: ctrl.MonMAC})
	memBase := metrics.HeapInUse()
	var dummies []*DummyAgent
	defer func() {
		for _, da := range dummies {
			da.Close()
		}
	}()
	for i := 0; i < agents; i++ {
		da, err := StartDummyAgent(uint64(i+1), addr, e2s, sms, 32, time.Millisecond)
		if err != nil {
			return 0, 0, err
		}
		dummies = append(dummies, da)
	}
	if !WaitUntil(waitShort, func() bool {
		n, _ := mon.Counters()
		return n > uint64(agents*10)
	}) {
		return 0, 0, fmt.Errorf("flexric: indications not flowing")
	}
	m := metrics.StartCPU()
	time.Sleep(d)
	return m.NormalizedPercent(), heapSinceMB(memBase), nil
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
