package crashtest

import (
	"testing"

	"icash/internal/core"
	"icash/internal/fault"
	"icash/internal/sim"
)

func sweepConfig() Config {
	cc := core.NewDefaultConfig(4096, 256, 64<<10, 256<<10)
	cc.ScanPeriod = 100
	cc.ScanWindow = 400
	cc.LogBlocks = 64
	// Durability points are the harness's explicit Flush calls only, so
	// the oracle knows exactly when the floor rises.
	cc.FlushPeriodOps = 0
	cc.FlushDirtyBytes = 1 << 30
	return Config{
		Core:       cc,
		Seed:       42,
		Ops:        4000,
		LBASpace:   1024,
		WriteFrac:  0.5,
		FlushEvery: 300,
	}
}

// TestCrashSweep cuts power at a spread of log-write boundaries with a
// range of torn-write sizes — from "power died before the sector
// stream" (0) through mid-block tears to "block fully landed" (4096) —
// and requires every recovery to pass invariants plus a full oracle
// read-back.
func TestCrashSweep(t *testing.T) {
	cfg := sweepConfig()
	points, err := LogWritePoints(cfg)
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if len(points) < 20 {
		t.Fatalf("workload produced only %d log writes; need >= 20 crash points", len(points))
	}

	tornVariants := []int{0, 1, 100, 2048, 4096}
	// Spread 25 crash points evenly across the run so early, mid and
	// late log activity (including cleaning) all get cut.
	const nPoints = 25
	var tornSeen, cleanSeen int
	for i := 0; i < nPoints; i++ {
		p := points[i*len(points)/nPoints]
		torn := tornVariants[i%len(tornVariants)]
		res, err := RunCrash(cfg, p, torn)
		if err != nil {
			t.Fatalf("crash at write %d torn %d: %v", p, torn, err)
		}
		if !res.Crashed {
			t.Fatalf("crash at write %d torn %d never fired", p, torn)
		}
		if res.Stats.TornLogBlocks > 0 {
			tornSeen++
		} else {
			cleanSeen++
		}
	}
	// Mid-block tears must actually exercise the CRC-reject path at
	// least some of the time, and full-block landings must recover
	// without spurious rejects.
	if tornSeen == 0 {
		t.Error("no sweep run observed a torn log block; CRC reject path untested")
	}
	if cleanSeen == 0 {
		t.Error("every sweep run claimed a torn block; tornBytes=4096 should land cleanly")
	}
}

// TestSweepWorkloadInvariantsEveryOp replays the sweep's request stream
// without a crash and checks the controller's invariants after every
// operation, not only after recovery. This stream is where a slot was
// first seen listed twice for similarity search: a scan attached a
// candidate to a slot whose last dependent the attach's own delta store
// had just evicted, and the slot, still listed, was listed again. The
// second entry is gone again a few hundred operations later, so only a
// per-operation check sees it.
func TestSweepWorkloadInvariantsEveryOp(t *testing.T) {
	cfg := sweepConfig()
	r, err := buildRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runWorkload(cfg, r, func(int) error { return r.c.CheckInvariants() }); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSweepFailSlow repeats a crash sweep while the HDD runs under
// an always-active fail-slow window: commit bursts take 8x their
// nominal service time (with deterministic jitter), so power cuts land
// on a degraded device whose writes straddle durability decisions for
// much longer. Atomicity must not depend on the device being fast —
// every recovery still passes invariants, the journal audit, and the
// oracle read-back.
func TestCrashSweepFailSlow(t *testing.T) {
	cfg := sweepConfig()
	cfg.Plan = &fault.Schedule{Windows: []fault.Window{
		{Station: "hdd", From: 0, To: sim.Time(1 << 62), Factor: 8, Jitter: 2},
	}}
	if err := cfg.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	points, err := LogWritePoints(cfg)
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if len(points) < 10 {
		t.Fatalf("workload produced only %d log writes; need >= 10 crash points", len(points))
	}
	tornVariants := []int{0, 100, 2048, 4096}
	const nPoints = 10
	for i := 0; i < nPoints; i++ {
		p := points[i*len(points)/nPoints]
		torn := tornVariants[i%len(tornVariants)]
		res, err := RunCrash(cfg, p, torn)
		if err != nil {
			t.Fatalf("fail-slow crash at write %d torn %d: %v", p, torn, err)
		}
		if !res.Crashed {
			t.Fatalf("fail-slow crash at write %d torn %d never fired", p, torn)
		}
	}
}

// TestCrashAtEveryEarlyLogWrite densely covers the first log writes,
// where the log head wraps state is simplest and off-by-one bugs in
// replay show up.
func TestCrashAtEveryEarlyLogWrite(t *testing.T) {
	cfg := sweepConfig()
	cfg.Ops = 1500
	points, err := LogWritePoints(cfg)
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	n := len(points)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		for _, torn := range []int{0, 2048} {
			if _, err := RunCrash(cfg, points[i], torn); err != nil {
				t.Fatalf("crash at log write %d (write #%d) torn %d: %v", i, points[i], torn, err)
			}
		}
	}
}

// TestNoCrashBaseline checks the harness itself: with no crash armed
// the workload completes and the dry-run trace is reproducible.
func TestNoCrashBaseline(t *testing.T) {
	cfg := sweepConfig()
	p1, err := LogWritePoints(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := LogWritePoints(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatalf("dry runs disagree: %d vs %d log writes", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("dry runs disagree at %d: %d vs %d", i, p1[i], p2[i])
		}
	}
}
