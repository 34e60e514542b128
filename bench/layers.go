package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"flexric/internal/e2ap"
	"flexric/internal/metrics"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/telemetry"
	"flexric/internal/trace"
)

// The traced run. It is never the source of an end-to-end number: it
// repeats the paced phase with the harness's spans recording, the
// program's own trace package sampling every message, and the
// program's telemetry read before and after, and derives one number
// per layer from them. What the program does not expose in place comes
// from the stage replay (replay.go).

// progRing is the capacity the program's span ring is given for a
// traced run; the run keeps the newest spans.
const progRing = 1 << 19

// fileSpans bounds the program spans a trace file carries.
const fileSpans = 1 << 15

type layerTrace struct {
	tr              *tracer
	budget          time.Duration // wall time per replayed stage
	untracedCPUPerS float64
	tracedCPUPerS   float64
	tel0, tel1      *telemetry.Snapshot
	spans           map[string][]trace.SpanData // program spans by name

	rootMu    sync.Mutex
	rootFresh []float64 // due → root-side callback, ms
}

// startLayerTrace returns nil for an untraced run; every method is safe
// on nil.
func startLayerTrace(e *env) *layerTrace {
	if !e.trace {
		return nil
	}
	lt := &layerTrace{tr: e.tr, budget: replayBudget}
	if e.smoke {
		lt.budget = 5 * time.Millisecond
	}
	return lt
}

// enable ends the untraced stretch (base) and switches recording on.
func (lt *layerTrace) enable(base pacedOut) {
	lt.untracedCPUPerS = base.cpu / base.wall.Seconds()
	trace.SetCapacity(progRing)
	trace.SetSampleEvery(1)
	lt.tel0 = telemetry.TakeSnapshot()
	lt.tr.on.Store(true)
}

// endPaced ends the traced phase and collects what it recorded.
func (lt *layerTrace) endPaced(p pacedOut) {
	if lt == nil {
		return
	}
	lt.tr.on.Store(false)
	trace.SetSampleEvery(0)
	lt.tracedCPUPerS = p.cpu / p.wall.Seconds()
	lt.tel1 = telemetry.TakeSnapshot()
	all := trace.Snapshot()
	trace.SetCapacity(trace.DefaultCapacity)
	lt.spans = map[string][]trace.SpanData{}
	for _, s := range all {
		lt.spans[s.Name] = append(lt.spans[s.Name], s)
	}
	// The trace file keeps the newest fileSpans program spans.
	tail := all
	if len(tail) > fileSpans {
		tail = tail[len(tail)-fileSpans:]
	}
	prog := make([]programSpan, len(tail))
	for i, s := range tail {
		prog[i] = programSpan{Trace: s.TraceID, Span: s.SpanID, Parent: s.Parent, Name: s.Name,
			Start: s.StartNS - lt.tr.epoch.UnixNano(), Dur: s.DurationNS}
	}
	lt.tr.program = prog
}

// counter is the growth of a telemetry counter over the traced phase.
func (lt *layerTrace) counter(path string) float64 {
	return float64(lt.tel1.Counter(path) - lt.tel0.Counter(path))
}

// hist is what a telemetry histogram observed over the traced phase.
func (lt *layerTrace) hist(path string) telemetry.HistogramSnapshot {
	a, b := lt.tel0.Histogram(path), lt.tel1.Histogram(path)
	d := telemetry.HistogramSnapshot{Count: b.Count - a.Count, SumNS: b.SumNS - a.SumNS, Max: b.Max}
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	return d
}

// spanP50 is the median duration in µs of the program's spans of a name.
func (lt *layerTrace) spanP50(name string) float64 {
	return summarize(lt.spanDurations(name)).p50 / 1e3
}

func (lt *layerTrace) spanDurations(name string) []float64 {
	out := make([]float64, 0, len(lt.spans[name]))
	for _, s := range lt.spans[name] {
		out = append(out, float64(s.DurationNS))
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// common fills the metrics every workload derives the same way, and
// zeroes the rest so that a workload emits every declared name.
func (lt *layerTrace) common(res *result, loop *roundLoop, paced pacedOut, lat dist, maxFlight int64, allocBytes uint64, gcs uint32) {
	for _, d := range perLayer {
		res.layer[d.name] = 0
	}
	L := res.layer
	late := append([]float64(nil), paced.late...)
	sort.Float64s(late)
	L["gen.late_ms_p99"] = metrics.PercentileFloats(late, 99)
	L["gen.rounds_in_flight_max"] = float64(maxFlight)
	L["loop.lat_ms_hi"] = lat.hi
	L["loop.fail_pct"] = res.failPct()
	L["loop.trace_overhead_pct"] = 100 * (ratio(lt.tracedCPUPerS, lt.untracedCPUPerS) - 1)
	L["go.gc_cycles"] = float64(gcs)
	L["go.alloc_mb"] = float64(allocBytes) / (1 << 20)

	// Program-side boundaries the workload crossed.
	frames := lt.counter("transport.sctpish.frames_sent")
	sendLat := lt.hist("transport.sctpish.send_latency")
	L["agent.send_us_per_ind"] = mean(lt.spanDurations("agent.indication")) / 1e3
	L["agent.batch_inds_per_flush"] = ratio(frames, float64(sendLat.Count))
	L["e2ap.wire_b_per_ind"] = ratio(lt.counter("transport.sctpish.bytes_sent"), frames)
	L["transport.send_us_per_ind"] = ratio(float64(sendLat.SumNS)/1e3, frames)
	L["server.dispatch_us_p50"] = float64(lt.hist("server.dispatch_latency").Percentile(50)) / 1e3
	L["server.indications"] = lt.counter("server.indications")
	L["server.indications_dropped"] = lt.counter("server.indications_dropped")
	L["server.control_us_p50"] = lt.spanP50("server.control")
	L["ctrl.monitor.store_us_p50"] = lt.spanP50("ctrl.monitor.store")
	L["ctrl.monitor.wait_ms_p50"] = lt.monitorWait()
	L["tsdb.seal_us_p50"] = float64(lt.hist("tsdb.seal_latency").Percentile(50)) / 1e3
	L["obs.stream.ring_dropped"] = lt.counter("obs.stream.ring_dropped")
	L["obs.stream.dropped_frames"] = lt.counter("obs.stream.dropped_frames")

	if loop == nil {
		return
	}
	// The stepper's share: Fleet.Step minus the sm.TickAll inside it is
	// RAN simulation; both are harness spans of the emitting TTIs.
	steps, ticks := lt.tr.byRound("Fleet.Step"), lt.tr.byRound("sm.TickAll")
	var ranNS []float64
	for rd, s := range steps {
		if t, ok := ticks[rd]; ok {
			ranNS = append(ranNS, float64((s.End-s.Start)-(t.End-t.Start)))
		}
	}
	L["ran.step_us_per_tti"] = summarize(ranNS).p50 / 1e3
	// Every TTI steps the RAN, only the emitting ones are spanned.
	L["ran.stepper_share_pct"] = 100 * ratio(mean(ranNS)*float64(paced.ttis), float64(paced.wall))
}

// monitorWait is the median time a sampled indication spent between the
// end of its ctrl.monitor.store span (hand-off to the ingest pipeline)
// and the start of its tsdb.append span: pipeline queue, scheduling and
// SM decode. Inline ingest appends inside the store span and reads 0.
func (lt *layerTrace) monitorWait() float64 {
	stored := map[uint64]int64{}
	for _, s := range lt.spans["ctrl.monitor.store"] {
		stored[s.TraceID] = s.StartNS + s.DurationNS
	}
	var waits []float64
	for _, s := range lt.spans["tsdb.append"] {
		if end, ok := stored[s.TraceID]; ok && s.StartNS > end {
			waits = append(waits, float64(s.StartNS-end)/1e6)
		}
	}
	return summarize(waits).p50
}

// reconcile compares, for the traced rounds, the sum of the stage
// medians on the blocking path with the median of the loop the harness
// timed: generator lateness, RAN step, sm.TickAll (SM encode, E2AP
// encode and the socket write of every stream), the ingest tail (from
// the end of TickAll to the end of the round's last tsdb.append span)
// and the observer's detection delay. It returns 0 when the program's
// span ring kept no append of a traced round.
func (lt *layerTrace) reconcile(loop *roundLoop, from, to int64) float64 {
	epoch := lt.tr.epoch.UnixNano()
	appends := lt.spans["tsdb.append"]
	ends := make([]int64, len(appends))
	for i, s := range appends {
		ends[i] = s.StartNS + s.DurationNS - epoch
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	due, steps, ticks, vis := lt.tr.byRound("due"), lt.tr.byRound("Fleet.Step"), lt.tr.byRound("sm.TickAll"), lt.tr.byRound("tsdb.visible")
	var lateNS, stepNS, tickNS, tailNS, detectNS, loopNS []float64
	for rd := from; rd < to; rd++ {
		d, okD := due[rd]
		s, okS := steps[rd]
		t, okT := ticks[rd]
		v, okV := vis[rd]
		if !okD || !okS || !okT || !okV || len(ends) == 0 || ends[0] > t.Start {
			continue
		}
		// The round's last append is the newest one ending no later
		// than its visibility.
		i := sort.Search(len(ends), func(i int) bool { return ends[i] > v.Start }) - 1
		if i < 0 || ends[i] < t.Start {
			continue
		}
		last := ends[i]
		if last < t.End {
			last = t.End
		}
		lateNS = append(lateNS, float64(s.Start-d.Start))
		stepNS = append(stepNS, float64(t.Start-s.Start))
		tickNS = append(tickNS, float64(t.End-t.Start))
		tailNS = append(tailNS, float64(last-t.End))
		detectNS = append(detectNS, float64(v.Start-last))
		loopNS = append(loopNS, float64(v.Start-d.Start))
	}
	sum := median(lateNS) + median(stepNS) + median(tickNS) + median(tailNS) + median(detectNS)
	return 100 * ratio(sum, median(loopNS))
}

// monLayers fills what the monitoring workloads add.
func (lt *layerTrace) monLayers(res *result, r *monRig, paced pacedOut, samplesPerRound float64) {
	L := res.layer
	_, wire := r.mon.Counters()
	L["sm.report_b_per_sample"] = ratio(float64(wire), float64(r.issued.Load())*samplesPerRound)
	L["tsdb.series"] = float64(r.store.NumSeries())
	L["tsdb.chunk_b_per_sample"] = r.store.Stats().BytesPerSample
	L["tsdb.heap_b_per_series"] = ratio(res.e2e["heap_live_mb"]*(1<<20), float64(r.store.NumSeries()))
	L["loop.fresh_tsdb_ms_p50"] = res.e2e["lat_ms_p50"]
	L["loop.fresh_tsdb_ms_hi"] = L["loop.lat_ms_hi"]
	L["loop.reconcile_pct"] = lt.reconcile(&r.roundLoop, paced.from, paced.to)
	if r.sp.stream {
		var fresh []float64
		r.wsMu.Lock()
		for rd := paced.from; rd < paced.to; rd++ {
			if r.wsAt[rd] > 0 {
				fresh = append(fresh, float64(r.wsAt[rd]-r.dueAt[rd])/1e6)
			}
		}
		sizes := summarize(r.wsSizes)
		delivered := r.wsPaced
		r.wsMu.Unlock()
		d := summarize(fresh)
		L["loop.fresh_ws_ms_p50"], L["loop.fresh_ws_ms_hi"] = d.p50, d.hi
		L["obs.ws.frame_kb_p50"] = sizes.p50
		L["obs.ws.delivered_pct"] = 100 * ratio(float64(delivered), float64(paced.to-paced.from)*samplesPerRound)
		L["obs.hub.fanout_ms_p50"] = float64(lt.hist("obs.stream.fanout").Percentile(50)) / 1e6
	}
	rp := newReplay(&r.roundLoop, r.sp.e2, r.sp.sm, lt.budget)
	rp.codecStages(L)
	rp.storeStages(L, r.sp.tsdb, !r.sp.decode)
}

// ctrlLayers fills what ctrl_loop adds.
func (lt *layerTrace) ctrlLayers(res *result, r *ctrlRig, d dist) {
	L := res.layer
	L["loop.ctrl_rtt_ms_p50"], L["loop.ctrl_rtt_ms_hi"] = d.p50, d.hi
	post := summarize(lt.tr.durations("http.POST /slices"))
	step := summarize(lt.tr.durations("Fleet.Step"))
	L["ctrl.slicing.rest_us_p50"] = post.p50 / 1e3
	L["ran.step_us_per_tti"] = step.p50 / 1e3
	L["ran.stepper_share_pct"] = 100 * ratio(mean(lt.tr.durations("Fleet.Step")), mean(lt.tr.durations("cycle")))
	L["loop.reconcile_pct"] = 100 * ratio(step.p50+post.p50, d.p50*1e6)
	L["tsdb.series"] = float64(r.sc.TSDB().NumSeries())
	_, wire := r.sc.Monitor().Counters()
	L["sm.report_b_per_sample"] = ratio(float64(wire), float64(res.counts["indications"])*float64(r.sp.ues)*5)
	loop := &roundLoop{stations: r.stations}
	rp := newReplay(loop, e2ap.SchemeASN, sm.SchemeASN, lt.budget)
	rp.codecStages(L)
}

// watchRoot places one cross-shard subscription per agent at the root
// and times every indication from the due time of the TTI that emitted
// it to the root-side callback: one hop past the shard.
func (lt *layerTrace) watchRoot(r *fedRig) {
	for _, st := range r.stations {
		_, _ = r.root.Subscribe(st.nodeID, sm.IDMACStats,
			sm.EncodeTrigger(sm.SchemeFB, sm.Trigger{PeriodMS: uint32(r.sp.periodTTI)}),
			[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
			server.SubscriptionCallbacks{OnIndication: func(ev server.IndicationEvent) {
				now := time.Now().UnixNano()
				if !lt.tr.active() {
					return
				}
				rep, err := sm.DecodeMACReport(ev.Env.IndicationPayload())
				if err != nil {
					return
				}
				if due := r.ttiDue(rep.CellTimeMS); due > 0 {
					lt.rootMu.Lock()
					lt.rootFresh = append(lt.rootFresh, float64(now-due)/1e6)
					lt.rootMu.Unlock()
				}
			}})
	}
}

// fedLayers fills what fed_query adds. The stepper is at rest.
func (lt *layerTrace) fedLayers(res *result, r *fedRig, fresh dist, queries pacedOut) {
	L := res.layer
	L["loop.query_ms_hi"] = L["loop.lat_ms_hi"]
	L["loop.fresh_tsdb_ms_p50"], L["loop.fresh_tsdb_ms_hi"] = fresh.p50, fresh.hi
	handler := float64(lt.hist("obs.http.latency.tsdb_query").Percentile(50))
	L["obs.http.query_ms_p50"] = handler / 1e6
	// A query's loop is the generator's lateness, the root's handler
	// (fan-out, merge, encode) and the HTTP exchange around it.
	L["loop.reconcile_pct"] = 100 * ratio(handler/1e6+median(queries.late), res.e2e["lat_ms_p50"])
	lt.rootMu.Lock()
	L["federation.root_fresh_ms_p50"] = summarize(lt.rootFresh).p50
	lt.rootMu.Unlock()
	series := 0
	for _, sh := range r.shards {
		series += sh.DB().NumSeries()
	}
	L["tsdb.series"] = float64(series)
	L["tsdb.heap_b_per_series"] = ratio(res.e2e["heap_live_mb"]*(1<<20), float64(series))
	L["sm.report_b_per_sample"] = ratio(float64(res.counts["sm_bytes_per_round"]), float64(r.sp.agents*r.sp.ues*(5+9)))

	// The fan-out in isolation, on the newest answered window.
	if n := len(r.asked); n > 0 {
		a := r.asked[n-1]
		lt.tr.on.Store(true)
		defer lt.tr.on.Store(false)
		var direct, partial []float64
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			sp := lt.tr.begin("Root.FederatedWindow", int64(i))
			_, err := r.root.FederatedWindow("all", "mac", "all", a.field.String(), a.from, a.to, int64(r.sp.step))
			lt.tr.end(sp)
			if err == nil {
				direct = append(direct, ms(time.Since(t0)))
			}
			for _, sh := range r.shards {
				url := fmt.Sprintf("http://%s/tsdb/partial?agent=all&ue=all&fn=mac&field=%s&from=%d&to=%d&step_ms=%d",
					sh.ObsAddr(), a.field, a.from, a.to, r.sp.step.Milliseconds())
				t0 := time.Now()
				sp := lt.tr.begin("http.GET /tsdb/partial", int64(i))
				resp, err := r.client.Get(url)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					partial = append(partial, ms(time.Since(t0)))
				}
				lt.tr.end(sp)
			}
		}
		L["federation.fanout_ms_p50"] = summarize(direct).p50
		p := summarize(partial)
		L["federation.shard_partial_ms_p50"], L["federation.shard_partial_ms_max"] = p.p50, p.max
	}
	rp := newReplay(&r.roundLoop, e2ap.SchemeFB, sm.SchemeFB, lt.budget)
	rp.codecStages(L)
	rp.storeStages(L, r.owner[0].DB().Config(), false)
}
