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
// back in submission order. A worker count is a budget: RunPoints gives
// each point an equal share of it, and within a point the populate and
// flush fans over an array's shards run under a frozen clock, and Run
// fans its groups, each on a private clock with its own partial
// results; a run of one group whose streams write spends a second
// worker of its share on a stream-stage producer (DESIGN.md §11).

// ForEachPoint runs fn(0..n-1), fanning across min(workers, n) workers
// (workers <= 0 means GOMAXPROCS). Results must be gathered by index
// into caller-owned slices — that is what keeps the output independent
// of completion order. The returned error is the lowest-index failure
// (the same one a serial loop would hit first), so error reporting is
// deterministic too. With one worker the calling goroutine runs every
// point itself in submission order, stopping at the first failure
// exactly like the historical serial harness. With more, the calling
// goroutine runs point 0 itself and then pulls points like the other
// workers, so a point that drives a clock the caller already owns (the
// stream stage's pump) keeps that clock on one goroutine.
//
// This is the module's blessed fan-out primitive: every package that
// wants experiment-point parallelism routes through it (under
// internal/, TestConcurrencyContained rejects a go statement anywhere
// else), so the determinism argument — independent points, index-gathered results,
// lowest-index error — lives in exactly one place.
func ForEachPoint(workers, n int, fn func(int) error) error {
	p := min(resolveWorkers(workers), n)
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
	next.Store(1) // point 0 is the caller's
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for w := 1; w < p; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	errs[0] = fn(0)
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resolveWorkers is the worker count a workers option stands for:
// itself, or GOMAXPROCS when it is <= 0.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// WorkerShare is the worker count each of points gets from a budget of
// workers fanned over them: an equal share, at least one.
func WorkerShare(workers, points int) int {
	return max(1, resolveWorkers(workers)/max(1, points))
}
