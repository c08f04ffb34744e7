// Command icash-inspect runs a benchmark workload against a single
// I-CASH array and dumps the controller's internal state: the block-kind
// mix, delta-size distribution, heatmap spectrum, SSD slot usage, and
// the full path/eviction statistics — the observability companion to
// icash-bench.
//
// Usage:
//
//	icash-inspect -bench SysBench
//	icash-inspect -bench "TPC-C 5VMs" -scale 0.01
//	icash-inspect -bench "TPC-C 5VMs" -serve -vms -window 8
//
// With -serve the workload arrives through the block-service front-end
// (simulated framed sessions on the event engine) instead of the
// in-process harness, and the dump is preceded by per-session wire
// accounting: request mix, bytes on the wire, uplink-station
// utilization, and end-to-end latency histograms.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/server"
	"icash/internal/ssd"
	"icash/internal/workload"
)

func main() {
	var (
		bench  = flag.String("bench", "SysBench", "benchmark name (see icash-trace)")
		scale  = flag.Float64("scale", 1.0/256, "workload scale")
		seed   = flag.Uint64("seed", 42, "workload seed")
		serve  = flag.Bool("serve", false, "drive the array through the block-service front-end")
		window = flag.Int("window", 8, "serve mode: per-session in-flight window")
		vms    = flag.Bool("vms", false, "serve mode: one session per VM partition")
		shards = flag.Int("shards", 1, "partition the array into N LBA-range shards")
	)
	flag.Parse()

	p, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "icash-inspect: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}

	if *serve {
		opts := workload.Options{Scale: *scale, Seed: *seed, StreamPerVM: *vms, QueueDepth: *window, Shards: *shards}
		sr, err := server.RunServed(p, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icash-inspect: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(sr.Report())
		fmt.Println()
		dumpController(sr.Sys.Sharded, sr.Stats, sr.Degraded)
		st := ssdTotals(sr.Sys)
		fmt.Printf("\ndevices: SSD %s (%d host writes, %d erases, WA %.2f)\n",
			workload.ByteSize(st.HostWrites*blockdev.BlockSize),
			st.HostWrites, st.Erases, st.WriteAmplification())
		return
	}

	opts := workload.Options{Scale: *scale, Seed: *seed, Shards: *shards}
	br, err := harness.RunBenchmark(p, opts, []harness.Kind{harness.ICASH})
	if err != nil {
		fmt.Fprintf(os.Stderr, "icash-inspect: %v\n", err)
		os.Exit(1)
	}
	res := br.Results[harness.ICASH]
	st := res.ICASHStats

	fmt.Printf("I-CASH on %s (scale %.4g, %d ops)\n", p.Name, *scale, res.Ops)
	fmt.Printf("elapsed %v — %.1f tx/s, reads avg %v, writes avg %v\n",
		res.Elapsed, res.TxnPerSec, res.ReadHist.Mean(), res.WriteHist.Mean())
	fmt.Printf("read latency  %s\n", res.ReadHist.String())
	fmt.Printf("write latency %s\n\n", res.WriteHist.String())

	dumpController(br.SysSharded, st, res.Degraded)

	fmt.Printf("\ndevices: SSD %s (%d host writes, %d erases, WA %.2f), HDD busy %v\n",
		workload.ByteSize(int64(res.SSDHostWrites)*blockdev.BlockSize),
		res.SSDHostWrites, res.SSDErases, res.SSDWriteAmp, res.HDDBusy)
}

// heatValue sums one heatmap cell across every shard's controller.
func heatValue(sc *core.ShardedController, row int, col byte) uint64 {
	var total uint64
	for _, sh := range sc.Shards() {
		total += sh.Heatmap().Value(row, col)
	}
	return total
}

// ssdTotals aggregates flash accounting across the per-shard SSDs.
func ssdTotals(sys *harness.System) *ssd.Stats {
	var total ssd.Stats
	for _, dev := range sys.SSDs {
		total.Accumulate(&dev.Stats)
	}
	return &total
}

// dumpController renders the controller-internal sections shared by the
// direct and served paths: block mix, delta accounting, I/O paths,
// reference management, journal (with a per-shard breakout on
// multi-shard builds), resilience, evictions, and the heatmap spectrum.
func dumpController(sc *core.ShardedController, st *core.Stats, degraded bool) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	kinds := sc.KindCounts()
	ref, assoc, indep := kinds.Fractions()
	fmt.Fprintf(w, "block mix\treference %d (%.0f%%)\tassociate %d (%.0f%%)\tindependent %d (%.0f%%)\n",
		kinds.Reference, 100*ref, kinds.Associate, 100*assoc, kinds.Independent, 100*indep)
	fmt.Fprintf(w, "SSD slots\tlive %d\tfree %d\t\n", sc.LiveSlotCount(), sc.FreeSlotCount())
	fmt.Fprintf(w, "delta RAM\t%s in use\tavg delta %.0fB\t%d deltas accepted\n",
		workload.ByteSize(sc.DeltaRAMUsed()), st.AvgDeltaSize(), st.DeltaCount)
	if sc.NumShards() > 1 {
		fmt.Fprintf(w, "shards\t%d x %d blocks\t\t\n", sc.NumShards(), sc.ShardBlocks())
	}
	w.Flush()

	fmt.Println("\ndelta size distribution (accepted deltas):")
	labels := []string{"<=64B", "<=128B", "<=256B", "<=512B", "<=1KB", "<=2KB"}
	for i, n := range st.DeltaSizeHist {
		bar := ""
		if st.DeltaCount > 0 {
			width := int(50 * n / st.DeltaCount)
			for j := 0; j < width; j++ {
				bar += "#"
			}
		}
		fmt.Printf("  %-7s %7d %s\n", labels[i], n, bar)
	}

	fmt.Println("\nwrite path:")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  delta-compressed\t%d\n", st.WriteDelta)
	fmt.Fprintf(w, "  SSD write-through (oversized delta, §5.3)\t%d\n", st.WriteThroughSSD)
	fmt.Fprintf(w, "  independent (RAM data block)\t%d\n", st.WriteIndependent)
	fmt.Fprintf(w, "  delta encodes / threshold rejects\t%d / %d\n", st.EncodeOps, st.ScanDeltaRejects)
	w.Flush()

	fmt.Println("\nread path:")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  controller RAM hits\t%d\n", st.ReadRAMHits)
	fmt.Fprintf(w, "  SSD reference + delta decode\t%d (%d decodes)\n", st.ReadSSDHits, st.DecodeOps)
	fmt.Fprintf(w, "  packed-delta log loads\t%d\n", st.ReadLogLoads)
	fmt.Fprintf(w, "  HDD home misses\t%d\n", st.ReadHDDMisses)
	w.Flush()

	fmt.Println("\nreference management:")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  scans / candidates examined\t%d / %d\n", st.Scans, st.ScanCandidates)
	fmt.Fprintf(w, "  references selected / demoted\t%d / %d\n", st.RefsSelected, st.RefsDemoted)
	fmt.Fprintf(w, "  associations formed (first-load: %d)\t%d\n", st.FirstLoadPairs, st.AssocFormed)
	w.Flush()

	fmt.Println("\ndelta log:")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  flushes / log blocks written / deltas packed\t%d / %d / %d\n",
		st.FlushRuns, st.LogBlocksWritten, st.DeltasPacked)
	fmt.Fprintf(w, "  cleaner runs / deltas rescued\t%d / %d\n", st.LogCleanerRuns, st.DeltasRescued)
	w.Flush()

	fmt.Println("\ngroup-commit journal:")
	fmt.Print(metrics.FormatCounters(metrics.JournalCounters(st), "  ", false))
	if st.TxnsCommitted > 0 {
		fmt.Printf("  avg batch %s over %d txns\n",
			workload.ByteSize(st.GroupCommitBytes/st.TxnsCommitted), st.TxnsCommitted)
	}
	if sc.NumShards() > 1 {
		// Each shard runs its own group-commit chain; the aggregate
		// above is their sum, and the breakout shows whether the LBA
		// routing spread the commit load or funneled it.
		fmt.Println("  per-shard chains:")
		for i := 0; i < sc.NumShards(); i++ {
			ss := sc.Shard(i).Stats
			fmt.Printf("    s%d\ttxns=%d\tbytes=%s", i, ss.TxnsCommitted,
				workload.ByteSize(ss.GroupCommitBytes))
			if ss.TxnsCommitted > 0 {
				fmt.Printf("\tavg batch %s", workload.ByteSize(ss.GroupCommitBytes/ss.TxnsCommitted))
			}
			fmt.Println()
		}
	}

	fmt.Println("\nresilience (fault handling and self-healing):")
	if table := metrics.FormatCounters(metrics.ResilienceCounters(st), "  ", true); table != "" {
		fmt.Print(table)
	} else {
		fmt.Println("  no faults observed")
	}
	if degraded {
		fmt.Println("  ** array is running in HDD-only degraded mode **")
	}

	fmt.Println("\nintegrity (checksums, scrubbing, verified repair):")
	if table := metrics.FormatCounters(metrics.IntegrityCounters(st), "  ", true); table != "" {
		fmt.Print(table)
	} else {
		fmt.Println("  no corruption observed, scrubber idle")
	}
	if n := sc.PoisonedBlocks(); n > 0 {
		fmt.Printf("  ** %d blocks poisoned (unrepairable; awaiting overwrite) **\n", n)
	}

	fmt.Println("\nevictions:")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  virtual blocks / data RAM / delta RAM\t%d / %d / %d\n",
		st.EvictVBlocks, st.EvictDataRAM, st.EvictDeltaRAM)
	fmt.Fprintf(w, "  write-backs to home\t%d\n", st.WritebacksHome)
	w.Flush()

	fmt.Println("\nheatmap spectrum (top sub-signature popularity per row, summed across shards):")
	for row := 0; row < 8; row++ {
		type hv struct {
			val byte
			pop uint64
		}
		var top []hv
		for c := 0; c < 256; c++ {
			if p := heatValue(sc, row, byte(c)); p > 0 {
				top = append(top, hv{byte(c), p})
			}
		}
		sort.Slice(top, func(i, j int) bool { return top[i].pop > top[j].pop })
		fmt.Printf("  row %d:", row)
		for i := 0; i < 4 && i < len(top); i++ {
			fmt.Printf("  0x%02x=%d", top[i].val, top[i].pop)
		}
		fmt.Println()
	}
}
