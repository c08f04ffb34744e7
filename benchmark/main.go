// Command benchmark is the repository's benchmark: five named
// workloads, each reporting end-to-end metrics (untraced) or per-layer
// metrics (traced pass), with every output checked for correctness.
//
//	go run ./benchmark -workload oltp -seed 42 -seconds 12 -trace 0
//	go run ./benchmark -workload serve-tcp -seed 7 -seconds 12 -trace 1 -trace-out spans.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human table goes to standard
// error. The exit status is non-zero when any correctness check failed.
// See README.md in this directory for the workloads, the metric names
// and which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Uint64("seed", 42, "workload seed; the program under test receives only the inputs generated from it")
		seconds  = flag.Float64("seconds", runSeconds, "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass and probes")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the last traced rep's spans to this file as JSON lines")
		genJSON  = flag.Bool("manifest", false, "print BENCHMARK.json, generated from the metric tables, and exit")
	)
	flag.Parse()
	if *genJSON {
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	w := workloadByName(*name)
	if w == nil || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (one of %s) and -trace 0 or 1\n", workloadNames())
		flag.Usage()
		return 2
	}

	// An interrupt cancels the context, which kills a spawned server.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(os.Stderr, "icash benchmark: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)

	budget := time.Duration(*seconds * float64(time.Second))
	var o outcome
	var err error
	decls := endToEnd
	if *trace == 1 {
		decls = perLayer
		o, err = w.layerRun(ctx, *seed, budget, *traceOut, os.Stderr)
	} else {
		o, err = w.endToEndRun(ctx, *seed, budget, os.Stderr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	o.table(os.Stderr, decls)
	if err := o.emit(os.Stdout, decls); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !o.correct() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: correctness check failed (%d of %d)\n", w.name, o.Failed, o.Attempted)
		return 1
	}
	return 0
}
