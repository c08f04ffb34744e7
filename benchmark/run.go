package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"icash/internal/harness"
)

// minReps is the fewest reps a run makes however short its budget: two
// are what the determinism check needs.
const minReps = 2

// hostCost is what one measured region cost the host.
type hostCost struct {
	runS       float64
	allocBytes uint64 // MemStats.TotalAlloc across the region
	liveHeap   uint64 // HeapAlloc after a GC once the region ended
	profile    []byte // gzipped CPU profile of the region, when asked for
}

// measure runs fn between two garbage collections and reports its wall
// time, allocation and the heap left live after it. What fn built counts
// as live only if the caller still references it after measure returns.
func measure(profiled bool, fn func() error) (hostCost, error) {
	var c hostCost
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	stopProfile, err := startProfile(profiled)
	if err != nil {
		return c, err
	}
	t0 := time.Now()
	err = fn()
	c.runS = time.Since(t0).Seconds()
	c.profile = stopProfile()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	c.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	c.liveHeap = m2.HeapAlloc
	return c, err
}

// rep is one measured repetition of an in-process workload: a fresh
// system is built and populated (set-up), the stream is driven to
// completion (the measured run), and every LBA is read back.
type rep struct {
	hostCost
	sys     *system
	res     *harness.Result
	setupS  float64
	checked int64
	bad     int64
}

// rep runs one repetition. With tr set, sys.Dev is wrapped to record a
// span per device call under a harness.run root, and the run is CPU
// profiled; the timed reps pass nil.
func (w *workloadSpec) rep(seed uint64, tr *tracer) (*rep, error) {
	t0 := time.Now()
	s, err := w.setup(harness.ICASH, seed)
	if err != nil {
		return nil, err
	}
	r := &rep{sys: s, setupS: time.Since(t0).Seconds()}
	dev := s.sys.Dev
	if tr != nil {
		s.sys.Dev = &timedDev{inner: dev, tr: tr}
	}
	r.hostCost, err = measure(tr != nil, func() (err error) {
		tr.begin("harness.run", -1)
		r.res, err = s.run()
		tr.end()
		return err
	})
	if err != nil {
		return nil, err
	}
	s.sys.Dev = dev

	if r.checked, r.bad, err = s.verify(); err != nil {
		return nil, err
	}
	if r.res.Degraded {
		return nil, fmt.Errorf("benchmark: %s finished degraded", w.name)
	}
	if w.logBlocks > 0 && r.res.ICASHStats.LogCleanerRuns == 0 {
		return nil, fmt.Errorf("benchmark: %s: the %d-block log never wrapped (cleaner_runs = 0)", w.name, w.logBlocks)
	}
	return r, nil
}

// simOnly runs the stream once on a baseline system for its simulated
// throughput; nothing about it is timed.
func (w *workloadSpec) simOnly(kind harness.Kind, seed uint64) (float64, error) {
	s, err := w.setup(kind, seed)
	if err != nil {
		return 0, err
	}
	res, err := s.run()
	if err != nil {
		return 0, err
	}
	return res.ReqPerSec, nil
}

// hostSamples collects the per-rep host measurements whose medians are
// reported.
type hostSamples struct {
	setupS, opsPerS, allocPerOp, liveHeapMB []float64
}

func (h *hostSamples) add(setupS, opsPerS float64, allocBytes, liveHeap uint64, ops int64) {
	h.setupS = append(h.setupS, setupS)
	h.opsPerS = append(h.opsPerS, opsPerS)
	h.allocPerOp = append(h.allocPerOp, float64(allocBytes)/float64(ops))
	h.liveHeapMB = append(h.liveHeapMB, float64(liveHeap)/(1<<20))
}

func (h *hostSamples) into(v values) {
	v["setup_s"] = median(h.setupS)
	v["host_ops_per_s"] = median(h.opsPerS)
	v["host_alloc_bytes_per_op"] = median(h.allocPerOp)
	v["host_live_heap_mb"] = median(h.liveHeapMB)
}

// determinism fails the run when two reps of one seed disagree on any
// simulated quantity.
type determinism struct{ first string }

func (d *determinism) check(fp string, o *outcome, log io.Writer) {
	if d.first == "" {
		d.first = fp
	} else if fp != d.first {
		o.Nondeterministic = true
		fmt.Fprintf(log, "benchmark: simulated results differ between reps:\n  %s\n  %s\n", d.first, fp)
	}
}

// endToEndRun is the untraced pass: reps for the given budget, medians
// of the host measurements, the simulated numbers of the (identical)
// reps, and the FusionIO baseline for the speed-up.
func (w *workloadSpec) endToEndRun(ctx context.Context, seed uint64, budget time.Duration, log io.Writer) (outcome, error) {
	if w.serve != nil {
		return w.servedEndToEnd(ctx, seed, budget, log)
	}
	o := outcome{Metrics: values{}}
	fusion, err := w.simOnly(harness.FusionIO, seed)
	if err != nil {
		return o, err
	}
	var host hostSamples
	var det determinism
	deadline := time.Now().Add(budget)
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return o, err
		}
		r, err := w.rep(seed, nil)
		if err != nil {
			return o, err
		}
		host.add(r.setupS, float64(r.res.Ops)/r.runS, r.allocBytes, r.liveHeap, r.res.Ops)
		o.Attempted += r.res.Ops + r.checked
		o.Failed += r.bad
		det.check(simFingerprint(r.res), &o, log)
		o.Metrics["sim_req_per_s"] = r.res.ReqPerSec
		o.Metrics["sim_resp_mean_us"] = respMeanUs(&r.res.ReadHist, &r.res.WriteHist)
		o.Metrics["sim_speedup_vs_ssd"] = r.res.ReqPerSec / fusion
		if n == 0 {
			fmt.Fprintf(log, "  %d blocks, %d requests: %d block reads and %d block writes sampled\n",
				r.sys.gen.DataBlocks(), r.res.Ops, r.res.ReadHist.Count(), r.res.WriteHist.Count())
		}
		fmt.Fprintf(log, "  rep %d: setup %.3fs run %.3fs (%.0f ops/s)\n", n, r.setupS, r.runS, float64(r.res.Ops)/r.runS)
	}
	host.into(o.Metrics)
	return o, nil
}

// layerRun is the traced pass: untraced and traced reps alternate for
// the budget (their ratio is the tracing overhead), then the probes
// run. Exact counts come from the first untraced rep.
func (w *workloadSpec) layerRun(ctx context.Context, seed uint64, budget time.Duration, traceOut string, log io.Writer) (outcome, error) {
	o := outcome{Metrics: values{}}
	v := o.Metrics
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	if w.serve != nil {
		if err := w.servedLayers(ctx, seed, budget, traceOut, &o, log); err != nil {
			return o, err
		}
	} else if err := w.inprocLayers(ctx, seed, budget, traceOut, &o, log); err != nil {
		return o, err
	}
	w.probes(seed, v)
	return o, nil
}

func (w *workloadSpec) inprocLayers(ctx context.Context, seed uint64, budget time.Duration, traceOut string, o *outcome, log io.Writer) error {
	v := o.Metrics
	for _, k := range append([]harness.Kind{harness.FusionIO}, w.baselines...) {
		rps, err := w.simOnly(k, seed)
		if err != nil {
			return err
		}
		v[baselineMetric(k)] = rps
	}
	var plain, traced []float64
	var det determinism
	rows := map[string]int64{}
	agg := map[string]spanTotals{}
	var last *tracer
	deadline := time.Now().Add(budget)
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, err := w.rep(seed, nil)
		if err != nil {
			return err
		}
		if n == 0 {
			for name, val := range simLayerValues(r.sys, r.res) {
				v[name] = val
			}
		}
		tr := newTracer()
		t, err := w.rep(seed, tr)
		if err != nil {
			return err
		}
		for _, x := range []*rep{r, t} {
			o.Attempted += x.res.Ops + x.checked
			o.Failed += x.bad
			det.check(simFingerprint(x.res), o, log)
		}
		plain, traced = append(plain, r.runS), append(traced, t.runS)
		if err := foldProfile(t.profile, rows); err != nil {
			return err
		}
		tr.addTotals(agg)
		last = tr
		fmt.Fprintf(log, "  pair %d: untraced run %.3fs, traced run %.3fs\n", n, r.runS, t.runS)
	}
	v["trace_overhead_share"] = median(traced)/median(plain) - 1
	run, rd, wr := agg["harness.run"], agg["core.read"], agg["core.write"]
	v["harness.run_self_share"] = float64(run.self) / float64(run.total)
	v["core.host_share"] = float64(rd.total+wr.total) / float64(run.total)
	if rd.count > 0 {
		v["core.read_host_ns"] = float64(rd.total.Nanoseconds()) / float64(rd.count)
	}
	if wr.count > 0 {
		v["core.write_host_ns"] = float64(wr.total.Nanoseconds()) / float64(wr.count)
	}
	hostShares(rows, v)
	if traceOut != "" {
		return writeSpans(traceOut, w.name, []*tracer{last})
	}
	return nil
}

// hostShares turns folded profile sample counts into the
// <module>.host_self_share rows, which sum to 1.
func hostShares(rows map[string]int64, v values) {
	var total int64
	for _, n := range rows {
		total += n
	}
	if total == 0 {
		// A run too short for a single 10 ms sample: all of it is
		// unattributed.
		v["other.host_self_share"] = 1
		return
	}
	for _, p := range hostSharePackages {
		v[p+".host_self_share"] = float64(rows[p]) / float64(total)
	}
}

// ---------------------------------------------------------------------
// The served workload
// ---------------------------------------------------------------------

// servedEndToEnd alternates a TCP rep against a fresh server (wall
// throughput, set-up) with an in-process replay of the same stream
// (simulated numbers, allocation and heap of the serving path).
func (w *workloadSpec) servedEndToEnd(ctx context.Context, seed uint64, budget time.Duration, log io.Writer) (outcome, error) {
	o := outcome{Metrics: values{}}
	bin, err := buildServer(ctx)
	if err != nil {
		return o, err
	}
	fusion, err := w.replay(seed, harness.FusionIO, nil)
	if err != nil {
		return o, err
	}
	var host hostSamples
	var det determinism
	deadline := time.Now().Add(budget)
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		t, err := w.runTCP(ctx, bin, seed, false)
		if err != nil {
			return o, err
		}
		r, err := w.replay(seed, harness.ICASH, nil)
		if err != nil {
			return o, err
		}
		host.add(t.setupS, t.reqPerSec(), r.allocBytes, r.liveHeap, r.ops)
		o.Attempted += t.replies + r.ops
		o.Failed += t.bad + r.bad
		det.check(r.fingerprint(), &o, log)
		o.Metrics["sim_req_per_s"] = r.simReqPerSec()
		o.Metrics["sim_resp_mean_us"] = respMeanUs(&r.read, &r.write)
		o.Metrics["sim_speedup_vs_ssd"] = r.simReqPerSec() / fusion.simReqPerSec()
		fmt.Fprintf(log, "  rep %d: spawn %.3fs tcp %.3fs (%.0f req/s, p50 %.0fus p99 %.0fus) replay %.3fs\n",
			n, t.setupS, t.wallS, t.reqPerSec(), percentile(t.latUs, 50), percentile(t.latUs, 99), r.runS)
	}
	host.into(o.Metrics)
	return o, nil
}

// servedLayers is the served workload's traced pass: client latency
// percentiles from untraced TCP reps, client write/wait time from
// traced ones, and the server-side layers from a traced, profiled
// in-process replay.
func (w *workloadSpec) servedLayers(ctx context.Context, seed uint64, budget time.Duration, traceOut string, o *outcome, log io.Writer) error {
	v := o.Metrics
	bin, err := buildServer(ctx)
	if err != nil {
		return err
	}
	fusion, err := w.replay(seed, harness.FusionIO, nil)
	if err != nil {
		return err
	}
	v[baselineMetric(harness.FusionIO)] = fusion.simReqPerSec()

	var plainTCP, tracedTCP, plainReplay, tracedReplay, p50, p99 []float64
	var det determinism
	rows := map[string]int64{}
	agg := map[string]spanTotals{}
	var last []*tracer
	var requests int64
	deadline := time.Now().Add(budget)
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		tcp, err := w.runTCP(ctx, bin, seed, false)
		if err != nil {
			return err
		}
		tcpT, err := w.runTCP(ctx, bin, seed, true)
		if err != nil {
			return err
		}
		rp, err := w.replay(seed, harness.ICASH, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		rpT, err := w.replay(seed, harness.ICASH, tr)
		if err != nil {
			return err
		}
		if n == 0 {
			v["harness.read_mean_us"] = histMeanUs(&rp.read)
			v["harness.read_p99_us"] = rp.read.P99().Microseconds()
			v["harness.write_mean_us"] = histMeanUs(&rp.write)
			v["harness.write_p99_us"] = rp.write.P99().Microseconds()
		}
		o.Attempted += tcp.replies + tcpT.replies + rp.ops + rpT.ops
		o.Failed += tcp.bad + tcpT.bad + rp.bad + rpT.bad
		det.check(rp.fingerprint(), o, log)
		det.check(rpT.fingerprint(), o, log)
		plainTCP, tracedTCP = append(plainTCP, tcp.wallS), append(tracedTCP, tcpT.wallS)
		plainReplay, tracedReplay = append(plainReplay, rp.runS), append(tracedReplay, rpT.runS)
		p50, p99 = append(p50, percentile(tcp.latUs, 50)), append(p99, percentile(tcp.latUs, 99))
		requests += tcpT.replies
		if err := foldProfile(rpT.profile, rows); err != nil {
			return err
		}
		last = append(tcpT.tracers, tr)
		for _, t := range last {
			t.addTotals(agg)
		}
		fmt.Fprintf(log, "  round %d: tcp %.3fs traced %.3fs, replay %.3fs traced %.3fs\n", n, tcp.wallS, tcpT.wallS, rp.runS, rpT.runS)
	}
	v["client.lat_p50_us"] = median(p50)
	v["client.lat_p99_us"] = median(p99)
	v["client.write_us"] = float64(agg["client.write"].total.Nanoseconds()) / 1e3 / float64(requests)
	v["client.wait_us"] = float64(agg["client.wait"].total.Nanoseconds()) / 1e3 / float64(requests)
	feed, router := agg["server.feed"], agg["server.router"]
	v["server.feed_self_ns"] = float64(feed.self.Nanoseconds()) / float64(feed.count)
	v["server.router_ns"] = float64(router.self.Nanoseconds()) / float64(router.count)
	// Both legs were traced; the overhead reported is the larger.
	v["trace_overhead_share"] = max(median(tracedTCP)/median(plainTCP), median(tracedReplay)/median(plainReplay)) - 1
	hostShares(rows, v)
	if traceOut != "" {
		return writeSpans(traceOut, w.name, last)
	}
	return nil
}
