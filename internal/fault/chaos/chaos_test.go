package chaos

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"icash/internal/fault"
	"icash/internal/sim"
)

// TestChaosSoak is the acceptance soak: 20 seeds of combined
// fail-slow + fail-stop schedules at QD=8, each required to finish
// with clean invariants and every wrong read covered by the
// controller's own loss accounting (Run returns an error otherwise).
func TestChaosSoak(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		res, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Ops != 2000 {
			t.Fatalf("seed %d: ran %d ops, want 2000", seed, res.Ops)
		}
		t.Logf("%s", res)
	}
}

// TestChaosPureFailSlow soaks seeds with error injection off: every
// fault is a slowdown, so nothing may go wrong at all — no op errors,
// no wrong reads — no matter how hard the devices are throttled.
func TestChaosPureFailSlow(t *testing.T) {
	for seed := uint64(100); seed < 110; seed++ {
		res, err := Run(Config{Seed: seed, NoFailStop: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.WrongReads != 0 {
			t.Fatalf("seed %d: %d wrong reads under pure fail-slow", seed, res.WrongReads)
		}
		if res.OpErrors != 0 {
			t.Fatalf("seed %d: %d op errors under pure fail-slow", seed, res.OpErrors)
		}
	}
}

// TestChaosDeterminismAcrossGOMAXPROCS reruns the same seeds under
// different GOMAXPROCS settings and requires byte-identical Results —
// the soak must be a simulation, not a race.
func TestChaosDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	seeds := []uint64{3, 7, 11}
	baseline := make(map[uint64]*Result)
	for _, procs := range []int{1, runtime.NumCPU(), 2} {
		runtime.GOMAXPROCS(procs)
		for _, seed := range seeds {
			res, err := Run(Config{Seed: seed, Ops: 800})
			if err != nil {
				t.Fatalf("seed %d (GOMAXPROCS=%d): %v", seed, procs, err)
			}
			if base, ok := baseline[seed]; !ok {
				baseline[seed] = res
			} else if !reflect.DeepEqual(base, res) {
				t.Fatalf("seed %d (GOMAXPROCS=%d): result differs:\n got %+v\nwant %+v",
					seed, procs, res, base)
			}
		}
	}
}

// slowSSDPlan is the acceptance scenario: one long window multiplying
// every SSD channel's service time by 100 across most of the measured
// phase. Offsets are relative to the measured phase (Run shifts them).
func slowSSDPlan() *fault.Schedule {
	return &fault.Schedule{
		Windows: []fault.Window{{
			Station: "ssd",
			From:    sim.Time(0),
			To:      sim.Time(10 * sim.Second),
			Factor:  100,
		}},
	}
}

// TestChaosHedgingTailWin is the headline acceptance test: under a
// 100x SSD slowdown, the fail-slow machinery (hedged reads plus
// detector-driven quarantine) must cut read p99 by at least 2x versus
// the same run with hedging disabled.
func TestChaosHedgingTailWin(t *testing.T) {
	cfg := Config{Seed: 42, Ops: 3000, NoFailStop: true, Plan: slowSSDPlan()}

	hedged, err := Run(cfg)
	if err != nil {
		t.Fatalf("hedged run: %v", err)
	}
	cfg.DisableHedge = true
	bare, err := Run(cfg)
	if err != nil {
		t.Fatalf("unhedged run: %v", err)
	}

	hp99, bp99 := hedged.ReadHist.P99(), bare.ReadHist.P99()
	t.Logf("read p99: hedged=%v unhedged=%v (p50 %v vs %v; hedges=%d wins=%d quarantine=%d skips=%d)",
		hp99, bp99, hedged.ReadHist.P50(), bare.ReadHist.P50(),
		hedged.ICASHStats.HedgedReads, hedged.ICASHStats.HedgeWins,
		hedged.ICASHStats.QuarantineEvents, hedged.ICASHStats.QuarantineSkips)
	if hedged.ICASHStats.HedgedReads == 0 && hedged.ICASHStats.QuarantineSkips == 0 {
		t.Fatalf("fail-slow machinery never engaged (hedges=0, quarantine skips=0)")
	}
	if bp99 < 2*hp99 {
		t.Fatalf("tail win too small: unhedged p99 %v < 2x hedged p99 %v", bp99, hp99)
	}
}

// TestChaosHedgeEngagement pins the hedged-read path itself. At the
// default LBASpace the SSD's internal DRAM read cache covers every
// reference slot, so slot reads stay under the hedge deadline even at
// 100x and the tail win comes from quarantine alone. Doubling the LBA
// space pushes the slot population past the device cache: slot reads
// miss to flash, blow their deadline under the slowdown, and the
// controller must race the HDD home copy against the slow SSD.
func TestChaosHedgeEngagement(t *testing.T) {
	res, err := Run(Config{Seed: 42, Ops: 3000, LBASpace: 1024,
		NoFailStop: true, Plan: slowSSDPlan()})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hedges=%d wins=%d cancels=%d deadline=%d saved=%v",
		res.ICASHStats.HedgedReads, res.ICASHStats.HedgeWins, res.ICASHStats.HedgeCancels,
		res.ICASHStats.DeadlineExceeded, res.ICASHStats.HedgeSavedTime)
	if res.ICASHStats.DeadlineExceeded == 0 {
		t.Fatal("no slot read ever exceeded the hedge deadline under a 100x slowdown")
	}
	if res.ICASHStats.HedgedReads == 0 {
		t.Fatal("hedged reads never fired")
	}
	if res.ICASHStats.HedgeWins == 0 {
		t.Fatal("no hedge ever beat the slow SSD read")
	}
}

// TestChaosQuarantineReadmission closes the loop on the detector: a
// fail-slow window that ends mid-run must first quarantine the SSD and
// then — via the canary probes that keep feeding the detector while
// the data path bypasses the device — re-admit it, ending the run with
// the SSD back in service.
func TestChaosQuarantineReadmission(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 4000, NoFailStop: true,
		Plan: &fault.Schedule{Windows: []fault.Window{{
			Station: "ssd", From: 0, To: sim.Time(sim.Second), Factor: 100,
		}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("quarantines=%d readmits=%d skips=%d detector flags=%d clears=%d",
		res.ICASHStats.QuarantineEvents, res.ICASHStats.ReadmitEvents,
		res.ICASHStats.QuarantineSkips, res.DetectorFlags, res.DetectorClears)
	if res.ICASHStats.QuarantineEvents == 0 {
		t.Fatal("the 100x window never quarantined the SSD")
	}
	if res.ICASHStats.ReadmitEvents == 0 {
		t.Fatal("the SSD was never re-admitted after the window ended")
	}
	if res.Quarantined {
		t.Fatal("run ended with the SSD still quarantined")
	}
	if res.DetectorClears == 0 {
		t.Fatal("detector never cleared a station flag")
	}
}

// TestChaosExplicitPlanShifts checks that a caller-supplied relative
// plan is anchored at the measured phase: the windows must actually
// inflate station time (SlowOps > 0) even though the populate phase
// consumed simulated time before they were installed.
func TestChaosExplicitPlanShifts(t *testing.T) {
	res, err := Run(Config{Seed: 5, Ops: 600, NoFailStop: true, Plan: slowSSDPlan()})
	if err != nil {
		t.Fatal(err)
	}
	if res.SlowOps() == 0 {
		t.Fatal("explicit plan window never fired (SlowOps = 0): window offsets not shifted onto the clock?")
	}
}

// TestSoakHeadlineDefaults: a report's headline names the sizes its
// seeds ran at, Config's defaults included.
func TestSoakHeadlineDefaults(t *testing.T) {
	out, err := SoakReport(Config{Seed: 1}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	head := "chaos soak: 1 seeds from 1, 2000 ops/seed, QD=8\n  seed=1 ops=2000 "
	if !strings.HasPrefix(out, head) {
		t.Fatalf("report starts %q, want %q", out[:min(len(out), len(head))], head)
	}
}

// TestChaosSilentCorruptionSoak is the integrity acceptance soak: the
// devices lie — bit flips on reads, misdirected writes, writes acked
// but never applied — under the full fail-slow + fail-stop schedule,
// with the background scrubber running. Run enforces the
// zero-undetected-corruption bound (every wrong read covered by the
// controller's own loss accounting); on top of that, the seed set as a
// whole must actually exercise the machinery: injections happen,
// checksums catch them, and repairs succeed; and the faults meet
// family content held as patches in controller RAM and on the HDD.
func TestChaosSilentCorruptionSoak(t *testing.T) {
	var injected, detected, repaired, patchedRAM, patchedHome int64
	for seed := uint64(1); seed <= 15; seed++ {
		res, sys, err := run(Config{Seed: seed, SilentFaults: true,
			ScrubInterval: 5 * sim.Millisecond})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		injected += res.SSDFaultStats.BitFlips + res.SSDFaultStats.MisdirectedWrites + res.SSDFaultStats.LostWrites +
			res.HDDFaultStats.BitFlips + res.HDDFaultStats.MisdirectedWrites + res.HDDFaultStats.LostWrites
		detected += res.ICASHStats.CorruptionsDetected
		repaired += res.ICASHStats.CorruptionsRepaired
		for i, c := range sys.Sharded.Shards() {
			_, patched := c.DataForms()
			patchedRAM += int64(patched)
			for lba := range sys.Sharded.ShardBlocks() {
				if _, p := sys.HDDs[i].Kept(lba); p {
					patchedHome++
				}
			}
		}
		t.Logf("%s", res)
	}
	if injected == 0 {
		t.Fatal("no silent faults were ever injected across the seed set")
	}
	if detected == 0 {
		t.Fatal("silent faults were injected but no checksum ever caught one")
	}
	if repaired == 0 {
		t.Fatal("corruptions were detected but none was ever repaired")
	}
	if patchedRAM == 0 || patchedHome == 0 {
		t.Fatalf("no family content held as patches: %d RAM data blocks, %d home blocks", patchedRAM, patchedHome)
	}
	t.Logf("totals: injected=%d detected=%d repaired=%d patched: ram=%d home=%d",
		injected, detected, repaired, patchedRAM, patchedHome)
}

// TestChaosSilentPureCorruption isolates the silent faults: no
// fail-stop errors, no fail-slow windows — every fault in the run is a
// device lie. Nothing may reach the host wrong and unaccounted (Run
// checks), and the scrubber must demonstrably cover both scrub
// domains (reference slots and tracked home blocks).
func TestChaosSilentPureCorruption(t *testing.T) {
	var slotChecks, homeChecks, passes int64
	for seed := uint64(200); seed < 210; seed++ {
		res, err := Run(Config{Seed: seed, NoFailStop: true, NoFailSlow: true,
			SilentFaults: true, ScrubInterval: 2 * sim.Millisecond})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		slotChecks += res.ICASHStats.ScrubSlotChecks
		homeChecks += res.ICASHStats.ScrubHomeChecks
		passes += res.ICASHStats.ScrubPasses
		t.Logf("%s", res)
	}
	if slotChecks == 0 {
		t.Fatal("scrubber never verified a reference slot")
	}
	if homeChecks == 0 {
		t.Fatal("scrubber never verified a tracked home block")
	}
	if passes == 0 {
		t.Fatal("scrubber never completed a full pass")
	}
}

// TestChaosSilentDeterminism reruns silent-corruption + scrubber seeds
// under different GOMAXPROCS settings and requires byte-identical
// Results — detection latencies, repair counts and all.
func TestChaosSilentDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	seeds := []uint64{2, 9, 13}
	baseline := make(map[uint64]*Result)
	for _, procs := range []int{1, runtime.NumCPU(), 2} {
		runtime.GOMAXPROCS(procs)
		for _, seed := range seeds {
			res, err := Run(Config{Seed: seed, Ops: 800, SilentFaults: true,
				ScrubInterval: 3 * sim.Millisecond})
			if err != nil {
				t.Fatalf("seed %d (GOMAXPROCS=%d): %v", seed, procs, err)
			}
			if base, ok := baseline[seed]; !ok {
				baseline[seed] = res
			} else if !reflect.DeepEqual(base, res) {
				t.Fatalf("seed %d (GOMAXPROCS=%d): result differs:\n got %+v\nwant %+v",
					seed, procs, res, base)
			}
		}
	}
}

// TestChaosScrubCleanRun pins two properties of the scrubber on a
// fault-free array. First, leaving ScrubInterval at zero is a true
// no-op: the Result is byte-identical to a run that never mentioned
// the scrubber, so baselines stay comparable across the feature
// boundary. Second, turning the scrubber on may add device contention
// (scrub I/O shares the spindle and the flash channel — that overhead
// is measured in EXPERIMENTS.md) but must never invent corruption:
// zero detections, zero wrong reads, every host op still completes.
func TestChaosScrubCleanRun(t *testing.T) {
	base, err := Run(Config{Seed: 77, Ops: 1000, NoFailStop: true, NoFailSlow: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(Config{Seed: 77, Ops: 1000, NoFailStop: true, NoFailSlow: true,
		ScrubInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, off) {
		t.Fatalf("ScrubInterval=0 is not a no-op:\n got %+v\nwant %+v", off, base)
	}
	on, err := Run(Config{Seed: 77, Ops: 1000, NoFailStop: true, NoFailSlow: true,
		ScrubInterval: 2 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if on.ICASHStats.ScrubSlotChecks == 0 && on.ICASHStats.ScrubHomeChecks == 0 {
		t.Fatal("scrubber never ran in the scrubbed arm")
	}
	if on.Ops != base.Ops {
		t.Fatalf("scrubber changed op count: %d vs %d", on.Ops, base.Ops)
	}
	if on.WrongReads != 0 || on.OpErrors != 0 {
		t.Fatalf("scrubbed clean run saw wrong=%d errs=%d", on.WrongReads, on.OpErrors)
	}
	if on.ICASHStats.CorruptionsDetected != 0 || on.ICASHStats.UnrepairableBlocks != 0 {
		t.Fatalf("scrubber invented corruption on a clean array: det=%d unrep=%d",
			on.ICASHStats.CorruptionsDetected, on.ICASHStats.UnrepairableBlocks)
	}
}

// TestChaosShardFaults soaks the sharded build with every fault —
// fail-slow windows, fail-stop rates, silent corruption — landing on
// shard 0 only. The soak must survive with loss accounted (Run errors
// otherwise, checking every shard's invariants), and the blast radius
// must stop at the shard boundary: stations outside the "s0."
// namespace may record zero slow inflation.
func TestChaosShardFaults(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		res, err := Run(Config{Seed: seed, Shards: 4, SilentFaults: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Ops != 2000 {
			t.Fatalf("seed %d: ran %d ops, want 2000", seed, res.Ops)
		}
		var s0Stations, others int
		for _, st := range res.Stations {
			if strings.HasPrefix(st.Name, "s0.") {
				s0Stations++
				continue
			}
			others++
			if st.SlowOps != 0 || st.SlowTime != 0 {
				t.Errorf("seed %d: fault leaked off shard 0: station %s slowOps=%d slowTime=%v",
					seed, st.Name, st.SlowOps, st.SlowTime)
			}
		}
		if s0Stations == 0 || others == 0 {
			t.Fatalf("seed %d: station namespaces missing: s0=%d others=%d", seed, s0Stations, others)
		}
		t.Logf("%s", res)
	}
}

// TestChaosShardDeterminism reruns a sharded soak across GOMAXPROCS
// settings and requires byte-identical Results: the per-shard fan and
// the shard-scoped fault schedule must stay a simulation.
func TestChaosShardDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var base *Result
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(Config{Seed: 5, Ops: 800, Shards: 4, SilentFaults: true})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if base == nil {
			base = res
		} else if !reflect.DeepEqual(base, res) {
			t.Fatalf("GOMAXPROCS=%d: sharded result differs:\n got %+v\nwant %+v", procs, res, base)
		}
	}
}

// TestChaosShardPureFailSlow: a shard-scoped pure slowdown must hurt
// nothing — no op errors, no wrong reads — and must actually engage
// (slow inflation observed somewhere under s0.).
func TestChaosShardPureFailSlow(t *testing.T) {
	for seed := uint64(100); seed < 105; seed++ {
		res, err := Run(Config{Seed: seed, Shards: 2, NoFailStop: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.WrongReads != 0 || res.OpErrors != 0 {
			t.Fatalf("seed %d: wrong=%d errs=%d under pure shard-scoped fail-slow",
				seed, res.WrongReads, res.OpErrors)
		}
	}
}
