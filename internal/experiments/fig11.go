package experiments

import (
	"fmt"
	"sort"
	"time"

	"flexric/internal/agent"
	"flexric/internal/broker"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/station"
	"flexric/internal/xapp"
)

// Fig. 11: the flow-based traffic control experiment (§6.1.1). A VoIP
// flow (G.711: 172 B every 20 ms) shares a bearer with an iperf3-like
// TCP Cubic flow that starts 5 s later. In transparent mode the Cubic
// flow bloats the RLC buffer and the VoIP packets suffer seconds-scale
// sojourn (Fig. 11a); with the TC xApp's remedy — second queue, 5-tuple
// filter, 5G-BDP pacer — the VoIP flow stays fast (Fig. 11b), and its
// RTT CDF improves by ~4x (Fig. 11c).

// SojournSample is one time point of the sojourn series.
type SojournSample struct {
	TimeMS int64
	// RLCSojournMS is the head-of-line delay in the DRB buffer.
	RLCSojournMS int64
	// TCBacklogBytes is the backlog held at the TC sublayer (xApp case).
	TCBacklogBytes int
}

// Fig11Run is one scenario's outcome.
type Fig11Run struct {
	Mode     string // "transparent" or "xapp"
	Series   []SojournSample
	VoipRTTs []int64 // ms, all samples
	// RemedyAtMS is when the xApp applied its actions (xapp mode).
	RemedyAtMS int64
	CubicLoss  uint64
	Delivered  uint64 // cubic segments delivered
}

// Fig11Result is the full Fig. 11 dataset.
type Fig11Result struct {
	Transparent *Fig11Run
	XApp        *Fig11Run
}

// Fig11 reproduces the experiment. simMS is the scenario duration in
// simulated ms (paper: 60 s; shapes are stable from ~30 s).
func Fig11(simMS int) (*Fig11Result, error) {
	tr, err := fig11Run(false, simMS)
	if err != nil {
		return nil, err
	}
	xa, err := fig11Run(true, simMS)
	if err != nil {
		return nil, err
	}
	return &Fig11Result{Transparent: tr, XApp: xa}, nil
}

func fig11Run(useXApp bool, simMS int) (*Fig11Run, error) {
	run := &Fig11Run{Mode: "transparent"}
	if useXApp {
		run.Mode = "xapp"
	}

	// Full stack: broker + server + TC controller + agent + cell.
	brk, brkAddr, err := broker.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer brk.Close()
	srv, e2Addr, err := StartServer(e2ap.SchemeFB)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	mon := ctrl.NewMonitor(srv, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 10, Layers: ctrl.MonRLC})
	tcc, err := ctrl.NewTCController(mon, brkAddr, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer tcc.Close()

	bs, err := station.New(station.Spec{
		Cell: ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25}, SM: sm.SchemeFB, Controller: e2Addr,
		Agent: agent.Config{NodeID: station.Node(e2ap.NodeENB, 1), Scheme: e2ap.SchemeFB},
		SMs:   []uint16{sm.IDRLCStats, sm.IDTrafficCtrl},
	})
	if err != nil {
		return nil, err
	}
	defer bs.Close()
	if !WaitUntil(waitShort, func() bool { return len(srv.Agents()) == 1 }) {
		return nil, fmt.Errorf("agent connect")
	}

	if _, err := bs.Cell.Attach(1, "", "208.95", 28); err != nil {
		return nil, err
	}
	voip := &ran.CBR{
		Flow:          ran.FiveTuple{DstIP: 1, DstPort: 5060, Proto: ran.ProtoUDP},
		Size:          172,
		IntervalMS:    20,
		ReturnDelayMS: 10,
	}
	if err := bs.Cell.AddTraffic(1, voip); err != nil {
		return nil, err
	}
	cubic := &ran.CubicFlow{
		Flow:    ran.FiveTuple{DstIP: 1, DstPort: 5001, Proto: ran.ProtoTCP},
		StartMS: 5000, // the paper starts iperf3 5 s after irtt
	}
	if err := bs.Cell.AddTraffic(1, cubic); err != nil {
		return nil, err
	}

	var tcx *xapp.TCXApp
	xappDone := make(chan error, 1)
	if useXApp {
		tcx, err = xapp.NewTCXApp("http://"+tcc.Addr(), brkAddr, 0, 1)
		if err != nil {
			return nil, err
		}
		tcx.FilterDstPort = 5060
		tcx.FilterProto = uint8(ran.ProtoUDP)
		go func() { xappDone <- tcx.Run() }()
		defer tcx.Close()
	}

	// Slot loop: sample sojourn every 100 ms of simulated time. A tiny
	// pace keeps the socket path (stats → broker → xApp) live.
	for t := 0; t < simMS; t++ {
		bs.Step(1)
		if t%100 == 0 {
			var s SojournSample
			s.TimeMS = bs.Cell.Now()
			err := bs.Cell.WithUE(1, func(u *ran.UE) error {
				s.RLCSojournMS = u.RLC().OldestSojournMS(s.TimeMS)
				for _, q := range u.TC().Stats().Queues {
					s.TCBacklogBytes += q.BufferBytes
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			run.Series = append(run.Series, s)
			if useXApp && run.RemedyAtMS == 0 && tcx.Applied() {
				run.RemedyAtMS = s.TimeMS
			}
		}
		if useXApp && t%10 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	run.VoipRTTs = append([]int64(nil), voip.RTTs()...)
	run.Delivered, run.CubicLoss = cubic.Stats()
	return run, nil
}

// CDF returns (value, cumulative fraction) pairs for the run's VoIP RTT
// samples (Fig. 11c).
func (r *Fig11Run) CDF() ([]int64, []float64) {
	vals := append([]int64(nil), r.VoipRTTs...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	fr := make([]float64, len(vals))
	for i := range vals {
		fr[i] = float64(i+1) / float64(len(vals))
	}
	return vals, fr
}

// RTTPercentile returns the p-th percentile VoIP RTT in ms.
func (r *Fig11Run) RTTPercentile(p float64) int64 {
	vals, _ := r.CDF()
	if len(vals) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(vals)-1))
	return vals[idx]
}

// MaxSojourn returns the worst RLC sojourn observed.
func (r *Fig11Run) MaxSojourn() int64 {
	var m int64
	for _, s := range r.Series {
		if s.RLCSojournMS > m {
			m = s.RLCSojournMS
		}
	}
	return m
}

// String renders the Fig. 11 summary (series statistics + CDF markers).
func (r *Fig11Result) String() string {
	row := func(run *Fig11Run) []string {
		return []string{
			run.Mode,
			fmt.Sprintf("%d", run.MaxSojourn()),
			fmt.Sprintf("%d", run.RTTPercentile(50)),
			fmt.Sprintf("%d", run.RTTPercentile(95)),
			fmt.Sprintf("%d", run.RTTPercentile(99)),
			fmt.Sprintf("%d", run.CubicLoss),
			fmt.Sprintf("%d", run.RemedyAtMS),
		}
	}
	out := "Fig 11 — TC transparent mode vs xApp (sojourn and VoIP RTT, ms)\n" +
		Table([]string{"mode", "max RLC sojourn", "RTT p50", "RTT p95", "RTT p99", "cubic losses", "remedy at"},
			[][]string{row(r.Transparent), row(r.XApp)})
	if p50t, p50x := r.Transparent.RTTPercentile(50), r.XApp.RTTPercentile(50); p50x > 0 {
		out += fmt.Sprintf("VoIP median RTT improvement: %.1fx (paper: ~4x)\n",
			float64(p50t)/float64(p50x))
	}
	return out
}
