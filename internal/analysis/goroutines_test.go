package analysis

import "testing"

// TestGoroutinesFixture runs the concurrency-containment analyzer over
// its golden fixture, mounted at a plain internal/ path where no
// allowance applies.
func TestGoroutinesFixture(t *testing.T) {
	runFixture(t, Goroutines, "goroutines", "icash/internal/gofix")
}

// TestGoroutinesAllowFixture mounts a fixture at the harness path:
// ForEachPoint (the blessed fan-out primitive) may spawn, its package
// neighbors may not.
func TestGoroutinesAllowFixture(t *testing.T) {
	runFixture(t, Goroutines, "goroutinesallow", "icash/internal/harness")
}

// TestGoroutinesAllowedPackages proves no package is exempt wholesale:
// the event engine, once allowlisted, is single-threaded and held to
// the rule like any other.
func TestGoroutinesAllowedPackages(t *testing.T) {
	runFixture(t, Goroutines, "goroutines", "icash/internal/sim/event")
}
