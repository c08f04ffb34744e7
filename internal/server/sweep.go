package server

import (
	"fmt"
	"strings"

	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/workload"
)

// servePoint is one depth's pair of runs, gathered by index so the
// table renders in submission order at any worker count.
type servePoint struct {
	direct *harness.BenchmarkRun
	served *ServeResult
	err    error
}

// ServeSweep measures the cost of the wire: the RandRead
// microbenchmark on I-CASH, in-process versus served through framed
// sessions, across in-flight windows. Each depth is two independent
// simulations (direct and served), fanned across opts.Workers workers,
// each depth running on its harness.WorkerShare of them; the table is
// rendered in depth order, so the report is byte-identical at every
// worker count.
func ServeSweep(depths []int, opts workload.Options) (string, error) {
	if len(depths) == 0 {
		depths = []int{1, 2, 4, 8, 16}
	}
	if opts.Scale <= 0 {
		opts.Scale = harness.QDSweepScale
	}
	if opts.MaxOps <= 0 {
		opts.MaxOps = 4000
	}
	p := workload.RandRead()
	var b strings.Builder
	fmt.Fprintf(&b, "=== serve: %s on I-CASH, in-process vs block-service (scale %.5f, %d ops) ===\n",
		p.Name, opts.Scale, opts.MaxOps)

	points := make([]servePoint, len(depths))
	share := harness.WorkerShare(opts.Workers, len(depths))
	// Per-point failures are kept in the point (the table renders FAILED
	// rows), so the fan-out itself never errors.
	if err := harness.ForEachPoint(opts.Workers, len(depths), func(i int) error {
		o := opts
		o.QueueDepth, o.Workers = depths[i], share
		pt := servePoint{}
		pt.direct, pt.err = harness.RunBenchmark(p, o, []harness.Kind{harness.ICASH})
		if pt.err == nil {
			pt.served, pt.err = RunServed(p, o)
		}
		points[i] = pt
		return nil
	}); err != nil {
		return "", err
	}

	var firstErr error
	for i, qd := range depths {
		pt := points[i]
		if pt.err != nil {
			if firstErr == nil {
				firstErr = pt.err
			}
			fmt.Fprintf(&b, "qd=%-3d FAILED: %v\n", qd, pt.err)
			continue
		}
		d := pt.direct.Results[harness.ICASH]
		s := pt.served
		ratio := 0.0
		if d.ReqPerSec > 0 {
			ratio = s.ReqPerSec / d.ReqPerSec
		}
		fmt.Fprintf(&b, "qd=%-3d inproc=%8.0f req/s  served=%8.0f req/s  ratio=%4.2fx  served p99 read=%v\n",
			qd, d.ReqPerSec, s.ReqPerSec, ratio, s.ReadHist.P99())
		for _, sess := range s.Sessions {
			b.WriteString(metrics.FormatStations([]metrics.StationStats{sess.Station}, "  ", true))
		}
	}
	return b.String(), firstErr
}
