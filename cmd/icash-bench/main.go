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
//	icash-bench -chaos -shards 4         # soak over four shards, faults on shard 0
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
	"icash/internal/server"
	"icash/internal/workload"
)

// options is everything the flags say, in the shape the modes take it.
type options struct {
	run   string           // -run
	figs  workload.Options // figure runs: -scale -seed -qd -vms -shards -parallel
	sweep workload.Options // sweeps: -seed -ops -shards -parallel, -scale and -qd only when given
	soak  chaos.Config     // soaks: -seed -chaosops -shards, -qd only when given
	seeds int              // soaks: -seeds
}

// modes is every report icash-bench can print. Each but "run" is
// selected by the boolean flag of its name, the first set one in this
// order winning; "run" is what -run ID[,ID...] selects.
var modes = []struct {
	name, help string
	render     func(*options) (string, error)
}{
	{"scrub", "print the scrub-overhead table (clean soaks, scrubber off vs on) and exit",
		func(o *options) (string, error) { return chaos.ScrubOverheadReport(o.soak, o.seeds, o.figs.Workers) }},
	{"bitrot", "run the seeded bit-rot soak (silent-corruption schedules, scrubber on, oracle-checked) and exit",
		func(o *options) (string, error) { return chaos.BitrotReport(o.soak, o.seeds, o.figs.Workers) }},
	{"chaos", "run the deterministic chaos soak (fail-slow + fail-stop schedules, oracle-checked)",
		func(o *options) (string, error) { return chaos.SoakReport(o.soak, o.seeds, o.figs.Workers) }},
	{"shardsweep", "print the I-CASH shard-count scaling table (random read + write at QD>=8) and exit",
		func(o *options) (string, error) { return harness.ShardSweep(nil, o.sweep) }},
	{"serve", "print the served-vs-inproc window scaling table (block-service front-end) and exit",
		func(o *options) (string, error) { return server.ServeSweep(nil, o.sweep) }},
	{"wsweep", "print the I-CASH random-write queue-depth scaling table (group-commit batching) and exit",
		func(o *options) (string, error) { return harness.WriteQDSweep(nil, o.sweep) }},
	{"qdsweep", "print the RAID0 random-read queue-depth scaling table and exit",
		func(o *options) (string, error) { return harness.QDSweep(nil, o.sweep) }},
	{"list", "list all experiments and exit", listExperiments},
	{"run", "", func(o *options) (string, error) {
		return harness.RunExperiments(strings.Split(o.run, ","), o.figs)
	}},
}

func listExperiments(*options) (string, error) {
	var b strings.Builder
	b.WriteString("experiments (use -run ID[,ID...] or -run all):\n")
	for _, e := range harness.Experiments {
		fmt.Fprintf(&b, "  %-16s %-12s %s\n", e.ID, e.Benchmark, e.Title)
	}
	return b.String(), nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		run   = flag.String("run", "", "comma-separated experiment IDs, or 'all'")
		scale = flag.Float64("scale", 1.0/256, "data-set and op-count scale relative to the paper")
		seed  = flag.Uint64("seed", 42, "workload random seed")
		qd    = flag.Int("qd", 1, "outstanding requests per stream (1 = classic serial issue)")
		vms   = flag.Bool("vms", false, "run multi-VM benchmarks as interleaved per-VM streams")

		shards   = flag.Int("shards", 1, "partition I-CASH into this many LBA-range shards, each its own SSD+HDD pair (1 = one shard)")
		sweepOps = flag.Int("ops", 0, "sweeps: cap measured operations per point (0 = sweep default)")

		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"experiment points to run concurrently (1 = historical serial scheduling; output is identical either way)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		seeds    = flag.Int("seeds", 20, "chaos/scrub/bitrot: number of consecutive seeds, starting at -seed")
		chaosops = flag.Int("chaosops", 2000, "chaos/scrub/bitrot: measured operations per seed")
	)
	selected := make([]*bool, len(modes))
	for i, m := range modes {
		if m.name != "run" {
			selected[i] = flag.Bool(m.name, false, m.help)
		}
	}
	flag.Parse()

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

	o := &options{
		run:   *run,
		figs:  workload.Options{Scale: *scale, Seed: *seed, QueueDepth: *qd, StreamPerVM: *vms, Shards: *shards, Workers: *parallel},
		sweep: workload.Options{Seed: *seed, MaxOps: *sweepOps, Shards: *shards, Workers: *parallel},
		soak:  chaos.Config{Seed: *seed, Ops: *chaosops, Shards: *shards},
		seeds: *seeds,
	}
	// The shared -scale and -qd flags default to the figure runs' values;
	// the sweeps and soaks have defaults of their own (sweep scale, soak
	// QD=8), so only an explicit flag overrides those.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			o.sweep.Scale = *scale
		case "qd":
			o.sweep.QueueDepth, o.soak.QueueDepth = *qd, *qd
		}
	})

	// No mode flag means -run; no -run either lists the experiments and
	// exits 2 (usage).
	mode, usage := "run", 0
	for i, m := range modes {
		if on := selected[i]; on != nil && *on {
			mode = m.name
			break
		}
	}
	if mode == "run" && *run == "" {
		mode, usage = "list", 2
	}
	var report string
	var err error
	for _, m := range modes {
		if m.name == mode {
			report, err = m.render(o)
		}
	}
	fmt.Print(report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icash-bench: %v\n", err)
		return 1
	}
	return usage
}
