//go:build clockcheck

package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
)

// clockOwners maps each Clock to the goroutine that first mutated it.
// A side table (rather than a Clock field) keeps the zero-cost no-op
// path in normal builds and the Clock struct layout identical across
// build modes.
//
// This runtime assertion owns the single-owner rule: it catches a clock
// mutated from a second goroutine. A mutation from a package outside
// the run-driving set (sim, sim/event, harness) on the owning goroutine
// moves the timeline instead, which the golden reports and the event
// scheduler's "scheduling before now" panic catch. When the set of
// run-driving packages changes, update DESIGN.md §8 and §10 together
// with this comment.
var clockOwners sync.Map // *Clock -> uint64 goroutine id

// goid parses the current goroutine's id from its stack header. Slow,
// which is fine: clockcheck is a debug build for catching concurrency
// misuse, not a production mode.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [running]:"
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0
	}
	id, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// assertOwner enforces the single-owner rule: the first mutating call
// binds the clock to the calling goroutine; any later mutation from a
// different goroutine panics with both ids.
func (c *Clock) assertOwner() {
	id := goid()
	prev, loaded := clockOwners.LoadOrStore(c, id)
	if loaded && prev.(uint64) != id {
		panic(fmt.Sprintf(
			"sim: clock %p mutated by goroutine %d but owned by goroutine %d; "+
				"a Clock has exactly one driving goroutine per run (DESIGN.md, Clock ownership)",
			c, id, prev.(uint64)))
	}
}

// releaseOwner drops the goroutine binding (called by Reset at the
// explicit per-run boundary).
func (c *Clock) releaseOwner() {
	clockOwners.Delete(c)
}
