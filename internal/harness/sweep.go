package harness

import (
	"fmt"
	"strings"

	"icash/internal/core"
	"icash/internal/metrics"
	"icash/internal/workload"
)

// QDSweepScale is the default data-set scale for the queue-depth sweep:
// chosen so the scaled data set is a whole number of RAID0 stripes
// (245760 blocks / 120 = 2048 = 16 stripes of 4x32), so all four
// members carry equal chunk counts and the measured scaling reflects
// device parallelism rather than stripe-rounding imbalance.
const QDSweepScale = 1.0 / 120

// qdSweep is one queue-depth scaling table: a microbenchmark on one
// system across depths.
type qdSweep struct {
	name, label string
	profile     workload.Profile
	kind        Kind
	depths      []int
	maxOps      int
	tune        func(*core.Config)
}

// render runs the sweep's depths as one RunPoints fan and renders them
// in submission order, so the table (including the speedup column,
// normalized to the first depth) is byte-identical at every worker
// count. An I-CASH row carries the delta-log commit accounting.
func (sw qdSweep) render(depths []int, opts workload.Options) (string, error) {
	if len(depths) == 0 {
		depths = sw.depths
	}
	if opts.Scale <= 0 {
		opts.Scale = QDSweepScale
	}
	if opts.MaxOps <= 0 {
		opts.MaxOps = sw.maxOps
	}
	if opts.TuneICASH == nil {
		opts.TuneICASH = sw.tune
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s on %s (scale %.5f, %d ops) ===\n",
		sw.name, sw.profile.Name, sw.label, opts.Scale, opts.MaxOps)
	pts := make([]Point, len(depths))
	for i, qd := range depths {
		o := opts
		o.QueueDepth = qd
		pts[i] = Point{Profile: sw.profile, Opts: o, Kind: sw.kind}
	}
	out, err := RunPoints(opts.Workers, pts)
	base := 0.0
	for i, pt := range out {
		r := pt.Res
		if base == 0 {
			base = r.ReqPerSec
		}
		fmt.Fprintf(&b, "qd=%-3d req/s=%8.0f speedup=%5.2fx elapsed=%v\n",
			depths[i], r.ReqPerSec, r.ReqPerSec/base, r.Elapsed)
		if st := r.ICASHStats; st != nil {
			fmt.Fprintf(&b, "  log: txns=%d flushes=%d blocks=%d deltas=%d",
				st.TxnsCommitted, st.FlushRuns, st.LogBlocksWritten, st.DeltasPacked)
			if st.TxnsCommitted > 0 {
				fmt.Fprintf(&b, " bytes/txn=%d", st.GroupCommitBytes/st.TxnsCommitted)
			}
			b.WriteString("\n")
		}
		b.WriteString(metrics.FormatStations(r.Stations, "  ", true))
	}
	return b.String(), err
}

// QDSweep measures RAID0 random-read throughput against queue depth
// (the RandRead microbenchmark) and renders a scaling table with
// per-station utilization. A 4-disk array should approach 4x the QD=1
// throughput once enough requests are in flight (>=3x at QD=8).
func QDSweep(depths []int, opts workload.Options) (string, error) {
	return qdSweep{
		name: "qdsweep", label: "RAID0", profile: workload.RandRead(), kind: RAID0,
		depths: []int{1, 2, 4, 8, 16, 32}, maxOps: 4000,
	}.render(depths, opts)
}

// WriteQDSweep measures I-CASH random-write throughput against queue
// depth (the RandWrite microbenchmark) and renders a scaling table with
// the delta-log commit accounting next to each depth. This is the
// before/after instrument for the group-commit journal: overlapping
// writers should amortize into fewer, larger sequential log commits,
// which shows up as higher req/s and fewer log blocks per operation.
func WriteQDSweep(depths []int, opts workload.Options) (string, error) {
	return qdSweep{
		name: "wsweep", label: "I-CASH", profile: workload.RandWrite(), kind: ICASH,
		depths: []int{1, 2, 4, 8, 16}, maxOps: 12000,
		// Shrink the log so the run wraps it several times: steady-state
		// write throughput is set by the commit + compaction path, not by
		// appends into a forever-empty log.
		tune: func(c *core.Config) { c.LogBlocks = 128 },
	}.render(depths, opts)
}
