package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Deterministic parallel experiment scheduler. Independent experiment
// points — one (profile, system-kind, queue-depth) combination each —
// share no mutable state: every point builds its own System (fresh
// clock, devices, controller, CPU accountant) and its own workload
// generator. Fanning points out across a worker pool therefore changes
// wall-clock time only; every simulated number is produced by exactly
// the same code on exactly the same inputs, and results are gathered
// back in submission order. Within a run the only fans are over an
// array's shards: the populate and flush fans under a frozen clock, and
// Run's shard groups, each on a private clock with its own partial
// results (DESIGN.md §11).

// ForEachPoint runs fn(0..n-1), fanning across min(workers, n) workers
// (workers <= 0 means GOMAXPROCS). Results must be gathered by index
// into caller-owned slices — that is what keeps the output independent
// of completion order. The returned error is the lowest-index failure
// (the same one a serial loop would hit first), so error reporting is
// deterministic too. With one worker the calling goroutine runs every
// point itself in submission order, stopping at the first failure
// exactly like the historical serial harness.
//
// This is the module's blessed fan-out primitive: every package that
// wants experiment-point parallelism routes through it (the goroutines
// analyzer rejects hand-rolled worker pools in internal/), so the
// determinism argument — independent points, index-gathered results,
// lowest-index error — lives in exactly one place.
func ForEachPoint(workers, n int, fn func(int) error) error {
	p := workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
