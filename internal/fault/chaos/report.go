package chaos

import (
	"fmt"
	"strings"

	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/sim"
)

// The soak reports each run seeds consecutive seeds of one fault arm,
// starting at base.Seed and sized by base (Ops, QueueDepth <= 0 = 8),
// workers at a time (<= 0 = GOMAXPROCS). Every seed is a fully
// independent simulation gathered by index, so a report is
// byte-identical at any worker count.

// seedResult is one seed's outcome.
type seedResult struct {
	res *Result
	err error
}

// soak runs cfg once per seed across the harness worker pool and
// returns the outcomes in seed order.
func soak(cfg Config, seeds, workers int) ([]seedResult, error) {
	outs := make([]seedResult, seeds)
	// A failing seed is an outcome to report, kept in outs, so the fan
	// itself never errors.
	err := harness.ForEachPoint(workers, seeds, func(i int) error {
		c := cfg
		c.Seed += uint64(i)
		res, err := Run(c)
		outs[i] = seedResult{res: res, err: err}
		return nil
	})
	return outs, err
}

// perSeed soaks base over seeds seeds, renders each seed's result line,
// or its FAIL line, into b in seed order and hands each clean result to
// tally. The error, for the caller to return once its aggregate lines
// are rendered, names the seeds that failed; name prefixes it.
func perSeed(b *strings.Builder, name string, base Config, seeds, workers int, tally func(*Result)) error {
	outs, err := soak(base, seeds, workers)
	if err != nil {
		return err
	}
	var failed []uint64
	for i, out := range outs {
		if out.err != nil {
			failed = append(failed, base.Seed+uint64(i))
			fmt.Fprintf(b, "  FAIL %v\n", out.err)
			continue
		}
		fmt.Fprintf(b, "  %s\n", out.res)
		tally(out.res)
	}
	if failed != nil {
		return fmt.Errorf("%s: %d of %d seeds failed: %v", name, len(failed), len(outs), failed)
	}
	return nil
}

// begin applies the QueueDepth default and starts a report with its
// headline, up to the per-arm suffix.
func begin(b *strings.Builder, name, kind string, base *Config, seeds int) {
	if base.QueueDepth <= 0 {
		base.QueueDepth = 8
	}
	fmt.Fprintf(b, "%s: %d %s from %d, %d ops/seed, QD=%d", name, seeds, kind, base.Seed, base.Ops, base.QueueDepth)
	if base.Shards > 1 {
		fmt.Fprintf(b, ", %d shards", base.Shards)
	}
}

// SoakReport renders the chaos soak — combined fail-slow + fail-stop
// schedules — as one result line per seed (in seed order) plus an
// aggregate tail-latency summary. Any seed that fails verification
// (invariant breakage or silent data loss) fails the whole report after
// all seeds have been rendered.
func SoakReport(base Config, seeds, workers int) (string, error) {
	var (
		b                   strings.Builder
		readAll, writeAll   metrics.Histogram
		hedges, wins, flips int64
	)
	begin(&b, "chaos soak", "seeds", &base, seeds)
	b.WriteString("\n")
	failed := perSeed(&b, "chaos", base, seeds, workers, func(res *Result) {
		readAll.Merge(&res.ReadHist)
		writeAll.Merge(&res.WriteHist)
		hedges += res.ICASHStats.HedgedReads
		wins += res.ICASHStats.HedgeWins
		flips += res.ICASHStats.QuarantineEvents
	})
	fmt.Fprintf(&b, "aggregate reads  %s\n", readAll.String())
	fmt.Fprintf(&b, "aggregate writes %s\n", writeAll.String())
	fmt.Fprintf(&b, "hedges %d (wins %d), quarantine flips %d\n", hedges, wins, flips)
	if failed != nil {
		return b.String(), failed
	}
	fmt.Fprintf(&b, "all %d seeds clean: invariants held, zero silent data loss\n", seeds)
	return b.String(), nil
}

// ScrubOverheadReport renders the cost of running the background
// integrity scrubber on an otherwise healthy system: clean soaks (no
// fault injection of any kind) with the scrubber off and at two
// interval settings, so the throughput and tail-latency deltas are pure
// scrub overhead — the scrubber's reads share the devices with host I/O.
func ScrubOverheadReport(base Config, seeds, workers int) (string, error) {
	arms := []struct {
		name     string
		interval sim.Duration
	}{
		{"off", 0},
		{"10ms", 10 * sim.Millisecond},
		{"2ms", 2 * sim.Millisecond},
	}
	var b strings.Builder
	begin(&b, "scrub overhead", "clean seeds", &base, seeds)
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-6s %9s %10s %9s %9s %9s %8s %8s %7s\n",
		"scrub", "ops", "ops/sec", "read p50", "read p99", "write p99", "slotchk", "homechk", "passes")
	for _, arm := range arms {
		var (
			readAll, writeAll              metrics.Histogram
			totalOps                       int64
			elapsed                        sim.Duration
			slotChecks, homeChecks, passes int64
		)
		cfg := base
		cfg.NoFailStop, cfg.NoFailSlow, cfg.ScrubInterval = true, true, arm.interval
		outs, err := soak(cfg, seeds, workers)
		if err != nil {
			return b.String(), err
		}
		for i, out := range outs {
			seed := base.Seed + uint64(i)
			if out.err != nil {
				return b.String(), fmt.Errorf("scrub overhead: seed %d (%s): %w", seed, arm.name, out.err)
			}
			res, st := out.res, out.res.ICASHStats
			if st.CorruptionsDetected != 0 {
				return b.String(), fmt.Errorf("scrub overhead: seed %d (%s): %d corruptions detected on a clean run",
					seed, arm.name, st.CorruptionsDetected)
			}
			readAll.Merge(&res.ReadHist)
			writeAll.Merge(&res.WriteHist)
			totalOps += res.Ops
			elapsed += res.Elapsed
			slotChecks += st.ScrubSlotChecks
			homeChecks += st.ScrubHomeChecks
			passes += st.ScrubPasses
		}
		opsPerSec := float64(totalOps) / (float64(elapsed) / float64(sim.Second))
		fmt.Fprintf(&b, "%-6s %9d %10.0f %9v %9v %9v %8d %8d %7d\n",
			arm.name, totalOps, opsPerSec,
			readAll.P50(), readAll.P99(), writeAll.P99(),
			slotChecks, homeChecks, passes)
	}
	return b.String(), nil
}

// BitrotReport renders the seeded silent-corruption soak: every seed
// gets a generated schedule of bit-flip / misdirected-write /
// lost-write windows on both devices with the scrubber on, and the
// report aggregates how much damage was injected, how fast the
// checksums caught it, and how much of it could be repaired. Any wrong
// byte reaching the host beyond the controller's own accounted loss
// fails the report — the zero-undetected-corruption bound.
func BitrotReport(base Config, seeds, workers int) (string, error) {
	var (
		b                                   strings.Builder
		detectAll                           metrics.Histogram
		injected, detected, repaired, unrep int64
		uncaught, dropped                   int64
	)
	begin(&b, "bit-rot soak", "seeds", &base, seeds)
	b.WriteString(", scrubber on\n")
	// Pure silent-corruption arm: fail-stop and fail-slow injection off,
	// so every wrong byte, detection, and repair in the report traces
	// back to a lying device — the combined-mode soak is SoakReport.
	base.NoFailStop, base.NoFailSlow = true, true
	base.SilentFaults, base.ScrubInterval = true, 5*sim.Millisecond
	failed := perSeed(&b, "bitrot", base, seeds, workers, func(res *Result) {
		ssdF, hddF, st := res.SSDFaultStats, res.HDDFaultStats, res.ICASHStats
		injected += ssdF.BitFlips + ssdF.MisdirectedWrites + ssdF.LostWrites +
			hddF.BitFlips + hddF.MisdirectedWrites + hddF.LostWrites
		detected += st.CorruptionsDetected
		repaired += st.CorruptionsRepaired
		unrep += st.UnrepairableBlocks
		uncaught += res.SilentUncaught
		dropped += st.DroppedLogRecs
		detectAll.Merge(&res.DetectLat)
	})
	fmt.Fprintf(&b, "injected %d (ssd+hdd), detected %d, repaired %d, unrepairable %d, dropped log recs %d\n",
		injected, detected, repaired, unrep, dropped)
	fmt.Fprintf(&b, "never host-visible (cold, uncaught at end) %d\n", uncaught)
	fmt.Fprintf(&b, "detection latency %s\n", detectAll.String())
	if failed != nil {
		return b.String(), failed
	}
	fmt.Fprintf(&b, "all %d seeds clean: every host-visible corruption caught and accounted\n", seeds)
	return b.String(), nil
}
