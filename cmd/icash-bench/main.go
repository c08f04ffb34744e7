// Command icash-bench regenerates the figures and tables of the I-CASH
// paper's evaluation (§5) on the simulated storage stack.
//
// Usage:
//
//	icash-bench -run all                 # every figure and table
//	icash-bench -run fig6a,fig7          # specific experiments
//	icash-bench -list                    # show the experiment index
//	icash-bench -run fig6a -scale 0.02   # bigger run (default 1/256)
//	icash-bench -run fig15 -qd 8 -vms    # overlapping I/O, per-VM streams
//	icash-bench -run all -parallel 1     # serial (historical) scheduling
//	icash-bench -qdsweep                 # RAID0 queue-depth scaling table
//	icash-bench -serve                   # served-vs-inproc window scaling table
//	icash-bench -chaos                   # 20-seed chaos soak at QD=8
//	icash-bench -chaos -seeds 5 -chaosops 5000
//	icash-bench -scrub                   # scrub-overhead table (clean soaks, off vs on)
//	icash-bench -bitrot                  # seeded silent-corruption soak, scrubber on
//	icash-bench -run all -cpuprofile cpu.out -memprofile mem.out
//
// Each experiment prints measured values next to the paper's reported
// values; the reproduction criterion is the shape (who wins, by roughly
// what factor), not absolute numbers — the substrate is a simulator,
// not the authors' 2011 testbed.
//
// Experiment points (one per profile/system/queue-depth combination)
// are independent simulations; -parallel fans them across a worker
// pool with results reassembled in submission order, so the report is
// byte-identical at every worker count. -parallel 1 reproduces the
// historical serial scheduling exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"icash/internal/fault/chaos"
	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/server"
	"icash/internal/sim"
	"icash/internal/workload"
)

// chaosSeedResult is one seed's outcome, gathered by index so the soak
// report stays in seed order whatever the worker count.
type chaosSeedResult struct {
	res *chaos.Result
	err error
}

// soakSeeds runs one chaos soak per seed index across the harness
// worker pool and returns the outcomes in index order, so every report
// is byte-identical at any -parallel count.
func soakSeeds(n int, cfg func(i int) chaos.Config) []chaosSeedResult {
	outs := make([]chaosSeedResult, n)
	// A failing seed is an outcome to report, kept in outs; the fan
	// itself never errors.
	_ = harness.ForEachPoint(n, func(i int) error {
		res, err := chaos.Run(cfg(i))
		outs[i] = chaosSeedResult{res: res, err: err}
		return nil
	})
	return outs
}

// runChaos drives n chaos-soak seeds — fanned across the harness's
// worker count, each seed a fully independent simulation — and prints
// one result line per seed (in seed order) plus an aggregate
// tail-latency summary. Any seed that fails verification (invariant
// breakage or silent data loss) fails the whole run after all seeds
// have reported.
func runChaos(base uint64, n, ops, qd int) error {
	var (
		readAll  metrics.Histogram
		writeAll metrics.Histogram
		failed   []uint64
		hedges   int64
		wins     int64
		flips    int64
	)
	if qd <= 0 {
		qd = 8
	}
	fmt.Printf("chaos soak: %d seeds from %d, %d ops/seed, QD=%d\n", n, base, ops, qd)
	outs := soakSeeds(n, func(i int) chaos.Config {
		return chaos.Config{Seed: base + uint64(i), Ops: ops, QueueDepth: qd}
	})
	for i, out := range outs {
		if out.err != nil {
			failed = append(failed, base+uint64(i))
			fmt.Printf("  FAIL %v\n", out.err)
			continue
		}
		res := out.res
		fmt.Printf("  %s\n", res)
		readAll.Merge(&res.ReadHist)
		writeAll.Merge(&res.WriteHist)
		hedges += res.Stats.HedgedReads
		wins += res.Stats.HedgeWins
		flips += res.Stats.QuarantineEvents
	}
	fmt.Printf("aggregate reads  %s\n", readAll.String())
	fmt.Printf("aggregate writes %s\n", writeAll.String())
	fmt.Printf("hedges %d (wins %d), quarantine flips %d\n", hedges, wins, flips)
	if failed != nil {
		return fmt.Errorf("chaos: %d of %d seeds failed: %v", len(failed), n, failed)
	}
	fmt.Printf("all %d seeds clean: invariants held, zero silent data loss\n", n)
	return nil
}

// runScrubOverhead prints the cost of running the background integrity
// scrubber on an otherwise healthy system: clean soaks (no fault
// injection of any kind) with the scrubber off and at two interval
// settings, so the throughput and tail-latency deltas are pure scrub
// overhead — the scrubber's reads share the devices with host I/O.
func runScrubOverhead(base uint64, n, ops, qd int) error {
	if qd <= 0 {
		qd = 8
	}
	arms := []struct {
		name     string
		interval sim.Duration
	}{
		{"off", 0},
		{"10ms", 10 * sim.Millisecond},
		{"2ms", 2 * sim.Millisecond},
	}
	fmt.Printf("scrub overhead: %d clean seeds from %d, %d ops/seed, QD=%d\n", n, base, ops, qd)
	fmt.Printf("%-6s %9s %10s %9s %9s %9s %8s %8s %7s\n",
		"scrub", "ops", "ops/sec", "read p50", "read p99", "write p99", "slotchk", "homechk", "passes")
	for _, arm := range arms {
		outs := soakSeeds(n, func(i int) chaos.Config {
			return chaos.Config{
				Seed: base + uint64(i), Ops: ops, QueueDepth: qd,
				NoFailStop: true, NoFailSlow: true,
				ScrubInterval: arm.interval,
			}
		})
		var (
			readAll, writeAll              metrics.Histogram
			totalOps                       int64
			elapsed                        sim.Duration
			slotChecks, homeChecks, passes int64
		)
		for i, out := range outs {
			if out.err != nil {
				return fmt.Errorf("scrub overhead: seed %d (%s): %w", base+uint64(i), arm.name, out.err)
			}
			res := out.res
			if res.Stats.CorruptionsDetected != 0 {
				return fmt.Errorf("scrub overhead: seed %d (%s): %d corruptions detected on a clean run",
					base+uint64(i), arm.name, res.Stats.CorruptionsDetected)
			}
			readAll.Merge(&res.ReadHist)
			writeAll.Merge(&res.WriteHist)
			totalOps += res.Ops
			elapsed += res.Elapsed
			slotChecks += res.Stats.ScrubSlotChecks
			homeChecks += res.Stats.ScrubHomeChecks
			passes += res.Stats.ScrubPasses
		}
		opsPerSec := float64(totalOps) / (float64(elapsed) / float64(sim.Second))
		fmt.Printf("%-6s %9d %10.0f %9v %9v %9v %8d %8d %7d\n",
			arm.name, totalOps, opsPerSec,
			readAll.P50(), readAll.P99(), writeAll.P99(),
			slotChecks, homeChecks, passes)
	}
	return nil
}

// runBitrot drives the seeded silent-corruption soak: every seed gets
// a generated schedule of bit-flip / misdirected-write / lost-write
// windows on both devices with the scrubber on, and the report
// aggregates how much damage was injected, how fast the checksums
// caught it, and how much of it could be repaired. Any wrong byte
// reaching the host beyond the controller's own accounted loss fails
// the run — the zero-undetected-corruption bound.
func runBitrot(base uint64, n, ops, qd int) error {
	if qd <= 0 {
		qd = 8
	}
	fmt.Printf("bit-rot soak: %d seeds from %d, %d ops/seed, QD=%d, scrubber on\n", n, base, ops, qd)
	outs := soakSeeds(n, func(i int) chaos.Config {
		// Pure silent-corruption arm: fail-stop and fail-slow injection
		// off, so every wrong byte, detection, and repair in the report
		// traces back to a lying device — the combined-mode soak lives
		// under -chaos.
		return chaos.Config{
			Seed: base + uint64(i), Ops: ops, QueueDepth: qd,
			NoFailStop: true, NoFailSlow: true,
			SilentFaults:  true,
			ScrubInterval: 5 * sim.Millisecond,
		}
	})
	var (
		detectAll                           metrics.Histogram
		injected, detected, repaired, unrep int64
		uncaught, dropped                   int64
		failed                              []uint64
	)
	for i, out := range outs {
		if out.err != nil {
			failed = append(failed, base+uint64(i))
			fmt.Printf("  FAIL %v\n", out.err)
			continue
		}
		res := out.res
		fmt.Printf("  %s\n", res)
		injected += res.SSDFault.BitFlips + res.SSDFault.MisdirectedWrites + res.SSDFault.LostWrites +
			res.HDDFault.BitFlips + res.HDDFault.MisdirectedWrites + res.HDDFault.LostWrites
		detected += res.Stats.CorruptionsDetected
		repaired += res.Stats.CorruptionsRepaired
		unrep += res.Stats.UnrepairableBlocks
		uncaught += res.SilentUncaught
		dropped += res.Stats.DroppedLogRecs
		detectAll.Merge(&res.DetectLat)
	}
	fmt.Printf("injected %d (ssd+hdd), detected %d, repaired %d, unrepairable %d, dropped log recs %d\n",
		injected, detected, repaired, unrep, dropped)
	fmt.Printf("never host-visible (cold, uncaught at end) %d\n", uncaught)
	fmt.Printf("detection latency %s\n", detectAll.String())
	if failed != nil {
		return fmt.Errorf("bitrot: %d of %d seeds failed: %v", len(failed), n, failed)
	}
	fmt.Printf("all %d seeds clean: every host-visible corruption caught and accounted\n", n)
	return nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		run     = flag.String("run", "", "comma-separated experiment IDs, or 'all'")
		list    = flag.Bool("list", false, "list all experiments and exit")
		scale   = flag.Float64("scale", 1.0/256, "data-set and op-count scale relative to the paper")
		seed    = flag.Uint64("seed", 42, "workload random seed")
		qd      = flag.Int("qd", 1, "outstanding requests per stream (1 = classic serial issue)")
		vms     = flag.Bool("vms", false, "run multi-VM benchmarks as interleaved per-VM streams")
		qdsweep = flag.Bool("qdsweep", false, "print the RAID0 random-read queue-depth scaling table and exit")
		wsweep  = flag.Bool("wsweep", false, "print the I-CASH random-write queue-depth scaling table (group-commit batching) and exit")
		serve   = flag.Bool("serve", false, "print the served-vs-inproc window scaling table (block-service front-end) and exit")

		shards     = flag.Int("shards", 1, "partition I-CASH into this many LBA-range shards, each its own SSD+HDD pair (1 = one shard)")
		shardsweep = flag.Bool("shardsweep", false, "print the I-CASH shard-count scaling table (random read + write at QD>=8) and exit")
		sweepOps   = flag.Int("ops", 0, "sweeps: cap measured operations per point (0 = sweep default)")

		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"experiment points to run concurrently (1 = historical serial scheduling; output is identical either way)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		chaos    = flag.Bool("chaos", false, "run the deterministic chaos soak (fail-slow + fail-stop schedules, oracle-checked)")
		seeds    = flag.Int("seeds", 20, "chaos/scrub/bitrot: number of consecutive seeds, starting at -seed")
		chaosops = flag.Int("chaosops", 2000, "chaos/scrub/bitrot: measured operations per seed")

		scrub  = flag.Bool("scrub", false, "print the scrub-overhead table (clean soaks, scrubber off vs on) and exit")
		bitrot = flag.Bool("bitrot", false, "run the seeded bit-rot soak (silent-corruption schedules, scrubber on, oracle-checked) and exit")
	)
	flag.Parse()
	harness.SetParallelism(*parallel)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icash-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "icash-bench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "icash-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "icash-bench: %v\n", err)
			}
		}()
	}

	if *chaos || *scrub || *bitrot {
		// The shared -qd flag defaults to 1 for the classic experiments;
		// the soak modes' own default is QD=8, so only an explicit -qd
		// overrides it.
		soakQD := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "qd" {
				soakQD = *qd
			}
		})
		var err error
		switch {
		case *scrub:
			err = runScrubOverhead(*seed, *seeds, *chaosops, soakQD)
		case *bitrot:
			err = runBitrot(*seed, *seeds, *chaosops, soakQD)
		default:
			err = runChaos(*seed, *seeds, *chaosops, soakQD)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "icash-bench: %v\n", err)
			return 1
		}
		return 0
	}

	if *qdsweep || *wsweep || *serve || *shardsweep {
		opts := workload.Options{Seed: *seed, MaxOps: *sweepOps, Shards: *shards}
		scaleSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				scaleSet = true
			}
			if f.Name == "qd" {
				opts.QueueDepth = *qd
			}
		})
		if scaleSet {
			opts.Scale = *scale
		}
		sweep := harness.QDSweep
		if *wsweep {
			sweep = harness.WriteQDSweep
		}
		if *serve {
			sweep = server.ServeSweep
		}
		if *shardsweep {
			sweep = harness.ShardSweep
		}
		report, err := sweep(nil, opts)
		fmt.Print(report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icash-bench: %v\n", err)
			return 1
		}
		return 0
	}

	if *list || *run == "" {
		fmt.Println("experiments (use -run ID[,ID...] or -run all):")
		for _, e := range harness.Experiments {
			fmt.Printf("  %-16s %-12s %s\n", e.ID, e.Benchmark, e.Title)
		}
		if *run == "" && !*list {
			return 2
		}
		return 0
	}

	ids := strings.Split(*run, ",")
	opts := workload.Options{Scale: *scale, Seed: *seed, QueueDepth: *qd, StreamPerVM: *vms, Shards: *shards}
	report, err := harness.RunExperiments(ids, opts)
	fmt.Print(report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icash-bench: %v\n", err)
		return 1
	}
	return 0
}
