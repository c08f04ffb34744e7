package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"icash/internal/blockdev"
	"icash/internal/race"
	"icash/internal/sig"
	"icash/internal/sim"
)

// Alloc gates for the request hot path. The scratch arena and the
// blockdev pool remove the per-I/O 4 KB buffer churn; what remains is
// the documented allocation floor (DESIGN.md §11, EXPERIMENTS.md):
//
//   - RAM-hit reads: zero steady-state heap allocations;
//   - delta writes: the retained delta bytes themselves (an exact-size
//     copy of the reused encode buffer lives on as v.deltaRAM until the
//     block is evicted) plus bookkeeping that grows with the working
//     set (dirty queue, log metadata, map growth) — a handful of
//     objects, not buffers.
//
// Run by the CI alloc-gate step; skipped under -race, whose
// instrumentation adds allocations.

func TestAllocGateReadRAMHit(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rig := newTestRig(t, smallConfig())
	c := rig.c
	buf := make([]byte, blockdev.BlockSize)
	content := genContent(sim.NewRand(77), 1, 0.02)
	if _, err := c.WriteBlock(7, content); err != nil {
		t.Fatal(err)
	}
	// Warm: the block is cached in RAM; steady-state reads must not
	// allocate at all. Interleave away from periodic boundaries by
	// measuring many runs — the scan/flush cadence allocates, but the
	// amortized count over 100 runs still lands well under 1 when the
	// per-read cost is zero.
	if _, err := c.ReadBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := c.ReadBlock(7, buf); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 1 {
		t.Fatalf("RAM-hit ReadBlock allocated %v objects/op, want amortized < 1", got)
	}
}

// BenchmarkReadRAMHit and BenchmarkWriteDelta report the per-request
// allocation counts the gates above assert; their allocs/op columns are
// the record EXPERIMENTS.md's engine-performance appendix quotes.

func BenchmarkReadRAMHit(b *testing.B) {
	rig := newTestRig(b, smallConfig())
	c := rig.c
	buf := make([]byte, blockdev.BlockSize)
	content := genContent(sim.NewRand(77), 1, 0.02)
	if _, err := c.WriteBlock(7, content); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadBlock(7, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteDelta(b *testing.B) {
	rig := newTestRig(b, smallConfig())
	c := rig.c
	base := genContent(sim.NewRand(88), 2, 0)
	if _, err := c.WriteBlock(9, base); err != nil {
		b.Fatal(err)
	}
	r := sim.NewRand(99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base[r.Intn(len(base))] = byte(r.Uint64())
		if _, err := c.WriteBlock(9, base); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocGateCommitSteadyState gates the group-commit path at zero
// steady-state heap allocations: the staging area and part scratch are
// reused, a log block's record metadata is rebuilt in the block's own
// record, a new transaction takes over a forgotten one's record and
// block list, and the pack buffer is pooled, so a flush that drains one
// dirty delta into a durable transaction must not touch the heap. The dirtying WriteBlock runs
// outside the measured window (its retained delta is the write path's
// documented floor); only Flush is metered, via the runtime's malloc
// counter.
func TestAllocGateCommitSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cfg := smallConfig()
	rig := newTestRig(t, cfg)
	c := rig.c
	// The device keeps each block only up to its last non-zero byte, so
	// a log block whose delta grows from one wrap to the next grows its
	// entry. Lay every log block down dense before the controller first
	// writes the log: the gate counts the commit path, not the medium.
	dense := genContent(sim.NewRand(7), 5, 0)
	for b := range cfg.LogBlocks {
		if _, err := rig.hdd.WriteBlock(cfg.VirtualBlocks+b, dense); err != nil {
			t.Fatal(err)
		}
	}
	base := genContent(sim.NewRand(88), 2, 0)
	if _, err := c.WriteBlock(9, base); err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(99)
	step := func() error {
		base[r.Intn(len(base))] = byte(r.Uint64())
		if _, err := c.WriteBlock(9, base); err != nil {
			return err
		}
		return c.Flush()
	}
	// Warm-up: fill the scratch pools and let the transaction records
	// reach their steady state (a dead transaction's record is spare
	// only once later commits have overwritten its blocks).
	for i := 0; i < 100; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	var mallocs uint64
	const runs = 200
	for i := 0; i < runs; i++ {
		base[r.Intn(len(base))] = byte(r.Uint64())
		if _, err := c.WriteBlock(9, base); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if got := float64(mallocs) / runs; got >= 0.05 {
		t.Fatalf("steady-state commit allocated %v objects over %d flushes (%.3f/op), want 0",
			mallocs, runs, got)
	}
}

// BenchmarkCommitFlush reports the commit path's time and allocs/op:
// one dirty delta drained per flush into a one-part transaction. Its
// allocs/op column is the record the gate above asserts at zero...
// minus the write's retained delta, which rides along here.
func BenchmarkCommitFlush(b *testing.B) {
	rig := newTestRig(b, smallConfig())
	c := rig.c
	base := genContent(sim.NewRand(88), 2, 0)
	if _, err := c.WriteBlock(9, base); err != nil {
		b.Fatal(err)
	}
	r := sim.NewRand(99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base[r.Intn(len(base))] = byte(r.Uint64())
		if _, err := c.WriteBlock(9, base); err != nil {
			b.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAllocGateWriteDeltaFloor(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rig := newTestRig(t, smallConfig())
	c := rig.c
	base := genContent(sim.NewRand(88), 2, 0)
	if _, err := c.WriteBlock(9, base); err != nil {
		t.Fatal(err)
	}
	// Small mutations of one block: every write re-derives a delta, so
	// the floor is the retained delta (encodeDelta's exact-size copy) plus
	// amortized queue/log bookkeeping. Gate it at a small constant so a
	// regression back to fresh-4KB-buffers-per-I/O (several buffers per
	// op before this pool existed) fails loudly.
	r := sim.NewRand(99)
	i := 0
	got := testing.AllocsPerRun(200, func() {
		base[r.Intn(len(base))] = byte(r.Uint64())
		i++
		if _, err := c.WriteBlock(9, base); err != nil {
			t.Fatal(err)
		}
	})
	if got > 8 {
		t.Fatalf("delta WriteBlock allocated %v objects/op, want <= 8 (retained delta + bookkeeping)", got)
	}
}

// bytesPerOp reports the heap bytes op allocates per call, over runs
// calls.
func bytesPerOp(runs int, op func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAllocGateWriteDeltaBytes bounds the bytes, not just the objects,
// a steady-state delta write allocates: the encode runs in the
// controller's reused buffer and only an exact-size copy is retained,
// so rewriting a few hot fields costs the delta's own size plus
// bookkeeping — not a quarter-block encode buffer per write.
func TestAllocGateWriteDeltaBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rig := newTestRig(t, smallConfig())
	c := rig.c
	base := genContent(sim.NewRand(88), 2, 0)
	if _, err := c.WriteBlock(9, base); err != nil {
		t.Fatal(err)
	}
	// Keep rewriting the same three 16-byte fields, so the delta stays
	// the size of a typical oltp one however long the test runs.
	r := sim.NewRand(99)
	write := func() {
		field := []int{100, 1700, 3900}[r.Intn(3)]
		base[field+r.Intn(16)] = byte(r.Uint64())
		if _, err := c.WriteBlock(9, base); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		write() // warm up: queues and maps reach their steady capacity
	}
	if got := bytesPerOp(1000, write); got > 512 {
		t.Fatalf("delta WriteBlock allocated %d B/op, want <= 512 (exact-size retained delta + bookkeeping)", got)
	}
	// The same write committed at once instead of every FlushPeriodOps:
	// the commit packs through a pooled buffer and adds nothing.
	writeFlush := func() {
		write()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := bytesPerOp(1000, writeFlush); got > 512 {
		t.Fatalf("delta WriteBlock + Flush allocated %d B/op, want <= 512 (the write's floor; the pack buffer is pooled)", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// evictScales are the tracked-block populations BenchmarkReadMissEvict
// and its gate compare; the resident set is 64 blocks at every scale.
var evictScales = []int64{1 << 10, 16 << 10, 256 << 10}

// newEvictRig tracks the given number of blocks with room for 64 of them
// in data RAM, so every read of a tracked, non-resident block is a home
// read plus one replacement. The disk holds generated per-LBA content
// with tracked checksums, as a populated array does (a zero-filled,
// unverified read is ~0.2 us and would make the comparison one of cache
// misses only). Scans, flushes and heatmap decay are pushed out of
// reach: the measured path is the miss and the eviction alone.
func newEvictRig(tb testing.TB, tracked int64) *testRig {
	cfg := NewDefaultConfig(tracked, 64, 64<<10, 64*blockdev.BlockSize)
	cfg.MetadataBlocks = int(tracked) + 1024
	cfg.ScanPeriod = 1 << 30
	cfg.FlushPeriodOps = 0
	cfg.HeatmapDecayOps = 0
	rig := newTestRig(tb, cfg)
	rig.hdd.SetFill(fillByLBA)
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < tracked; lba++ {
		fillByLBA(lba, buf)
		rig.c.trackSum(lba, buf)
		if _, err := rig.c.ReadBlock(lba, buf); err != nil {
			tb.Fatal(err)
		}
	}
	return rig
}

// readMisses issues n reads that each miss data RAM: the stride walks
// the tracked range so a block is long evicted before it comes round.
func (rig *testRig) readMisses(tb testing.TB, n int, buf []byte) {
	c := rig.c
	tracked := c.cfg.VirtualBlocks
	lba := int64(c.Stats.Reads) * 521 % tracked
	for i := 0; i < n; i++ {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			tb.Fatal(err)
		}
		lba = (lba + 521) % tracked
	}
}

// BenchmarkReadMissEvict reports the cost of a read that misses data RAM
// and evicts, at three tracked-block populations. Replacement takes the
// resident sublist's tail, so ns/op must not grow with the population
// (TestAllocGateReadMissEvictScaling holds it to 2x across 256x).
func BenchmarkReadMissEvict(b *testing.B) {
	for _, tracked := range evictScales {
		rig := newEvictRig(b, tracked)
		b.Run(fmt.Sprintf("tracked=%dk", tracked>>10), func(b *testing.B) {
			buf := make([]byte, blockdev.BlockSize)
			b.ReportAllocs()
			b.ResetTimer()
			rig.readMisses(b, b.N, buf)
		})
	}
}

// timingGates adds the wall-clock comparison to
// TestAllocGateReadMissEvictScaling; `make alloc-gate` sets it. The plain
// suite checks allocations only: it shares its cores with every other
// package's tests, and cache contention slows the 256 Ki-block rig more
// than the 1 Ki one.
var timingGates = flag.Bool("timing-gates", false, "also gate wall-clock scaling ratios, not only allocation counts")

// bestOfRounds times each run in five interleaved rounds and keeps each
// one's fastest, so a noisy neighbour has to hit every round of one
// scale to move a ratio between them.
func bestOfRounds(runs []func()) []time.Duration {
	best := make([]time.Duration, len(runs))
	for round := 0; round < 5; round++ {
		for i, run := range runs {
			start := time.Now()
			run()
			if d := time.Since(start); round == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}

// TestAllocGateReadMissEvictScaling is the gate on that benchmark: a
// miss-and-evict read allocates nothing, and (with -timing-gates) costs
// at most twice as much with 256 Ki blocks tracked as with 1 Ki (the
// remainder is cache misses on the larger block map). Each scale keeps
// its fastest of five interleaved rounds so a noisy neighbour has to hit
// every round of one scale to move the ratio.
func TestAllocGateReadMissEvictScaling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts and timings are inflated under the race detector")
	}
	const perRound = 20000
	buf := make([]byte, blockdev.BlockSize)
	rigs := make([]*testRig, len(evictScales))
	for i, tracked := range evictScales {
		rigs[i] = newEvictRig(t, tracked)
		rigs[i].readMisses(t, perRound, buf) // warm the pools and the stride
		before := rigs[i].c.Stats.EvictDataRAM
		if allocs := testing.AllocsPerRun(10, func() { rigs[i].readMisses(t, 100, buf) }); allocs != 0 {
			t.Errorf("tracked=%d: %v allocations per 100 miss-and-evict reads, want 0", tracked, allocs)
		}
		if got := rigs[i].c.Stats.EvictDataRAM - before; got != 1100 {
			t.Fatalf("tracked=%d: %d evictions in 1100 reads, want one each", tracked, got)
		}
	}
	if !*timingGates {
		return
	}
	runs := make([]func(), len(rigs))
	for i, rig := range rigs {
		runs[i] = func() { rig.readMisses(t, perRound, buf) }
	}
	best := bestOfRounds(runs)
	for i, tracked := range evictScales {
		t.Logf("tracked=%d: %d ns per miss-and-evict read", tracked, int64(best[i])/perRound)
	}
	if small, large := best[0], best[len(best)-1]; large > 2*small {
		t.Fatalf("miss-and-evict read costs %v per %d at %d tracked blocks, %v at %d: more than 2x",
			large, perRound, evictScales[len(evictScales)-1], small, evictScales[0])
	}
}

// slotScales are the live-slot populations BenchmarkSimilarProbe and its
// gate compare; the probe measures the first maxSlotProbe of them at
// every scale.
var slotScales = []int64{256, 4 << 10, 32 << 10}

// newProbeRig fills the SSD with the given number of write-through
// slots of unrelated content, the shape a does-not-fit workload leaves.
// Scans, flushes and heatmap decay are pushed out of reach.
func newProbeRig(tb testing.TB, slots int64) *testRig {
	cfg := NewDefaultConfig(slots+8<<10, slots, 64<<10, 64*blockdev.BlockSize)
	cfg.MetadataBlocks = int(slots) + 8<<10
	cfg.ScanPeriod = 1 << 30
	cfg.FlushPeriodOps = 0
	cfg.HeatmapDecayOps = 0
	rig := newTestRig(tb, cfg)
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < slots; lba++ {
		fillByLBA(lba, buf)
		if _, err := rig.c.WriteBlock(lba, buf); err != nil {
			tb.Fatal(err)
		}
	}
	if got := int64(len(rig.c.liveSlots())); got != slots {
		tb.Fatalf("%d live slots after %d write-throughs", got, slots)
	}
	return rig
}

// probes runs n similarity probes with random signatures: none equals a
// slot's, so each one measures its whole budget.
func (rig *testRig) probes(n int, r *sim.Rand) {
	var sigv sig.Signature
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(sigv[:], r.Uint64())
		probeSink = rig.c.findSimilarSlot(sigv)
	}
}

// probeSink keeps the probes' results live.
var probeSink *refSlot

// BenchmarkSimilarProbe reports the cost of one similarity probe at
// three live-slot populations. The probe reads a maintained list and
// measures a bounded prefix of it, so ns/op must not grow with the
// population (TestAllocGateSlotWalksScaling holds it to 2x across 128x).
func BenchmarkSimilarProbe(b *testing.B) {
	for _, slots := range slotScales {
		rig := newProbeRig(b, slots)
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			rig.probes(b.N, sim.NewRand(1))
		})
	}
}

// scanProbeWindow is the scan window of the scan-probe rig, about the
// unattached share of a `mail` scan.
const scanProbeWindow = 4000

// newScanProbeRig is a probe rig of maxSlotProbe write-through slots
// with scanProbeWindow slot-less blocks of unrelated content read in
// after them: a scan's whole window is unattached, no candidate is
// similar to a slot or popular enough to promote, so every scan probes
// scanProbeWindow times and changes nothing.
func newScanProbeRig(tb testing.TB) *testRig {
	rig := newProbeRig(tb, maxSlotProbe)
	rig.hdd.SetFill(fillByLBA)
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(maxSlotProbe); lba < maxSlotProbe+scanProbeWindow; lba++ {
		if _, err := rig.c.ReadBlock(lba, buf); err != nil {
			tb.Fatal(err)
		}
	}
	rig.c.cfg.ScanWindow = scanProbeWindow
	if n := rig.c.scanWindowUnattachedWalk(); n != scanProbeWindow {
		tb.Fatalf("%d unattached blocks in a %d-block window", n, scanProbeWindow)
	}
	return rig
}

// scans runs n scans.
func (rig *testRig) scans(tb testing.TB, n int) {
	for i := 0; i < n; i++ {
		if err := rig.c.scan(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkScanProbe reports the host cost of one scan of that rig: the
// scan `mail` runs, its probes answered by the probe index.
func BenchmarkScanProbe(b *testing.B) {
	rig := newScanProbeRig(b)
	rig.scans(b, 1) // builds the probe index, grows the scan's scratch
	b.ReportAllocs()
	b.ResetTimer()
	rig.scans(b, b.N)
}

// TestAllocGateScanProbe is the gate on that benchmark: once the first
// scan has built the probe index, a scan allocates nothing, changes no
// slot and leaves the index fresh; with -timing-gates, the window's
// probes through the index cost at most a quarter of the same probes
// through findSimilarSlot. The gate times the probes alone: sorting the
// window, the rest of the scan, costs more than that quarter on its own.
func TestAllocGateScanProbe(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts and timings are inflated under the race detector")
	}
	const perRound = 20
	rig := newScanProbeRig(t)
	c := rig.c
	rig.scans(t, 1)
	before := c.Stats
	if allocs := testing.AllocsPerRun(10, func() { rig.scans(t, 1) }); allocs != 0 {
		t.Errorf("%v allocations per scan, want 0", allocs)
	}
	if after := c.Stats; after.AssocFormed != before.AssocFormed || after.RefsSelected != before.RefsSelected ||
		c.scanWindowUnattachedWalk() != scanProbeWindow || !c.probe.fresh {
		t.Fatalf("scans changed the rig: %d attached, %d installed, probe index fresh %v",
			after.AssocFormed-before.AssocFormed, after.RefsSelected-before.RefsSelected, c.probe.fresh)
	}
	if !*timingGates {
		return
	}
	var window []sig.Signature
	for v, n := c.lru.head, 0; n < scanProbeWindow; v, n = v.next, n+1 {
		window = append(window, v.sigv)
	}
	probeWindow := func(probe func(sig.Signature) *refSlot) func() {
		return func() {
			for i := 0; i < perRound; i++ {
				for _, sigv := range window {
					probeSink = probe(sigv)
				}
			}
		}
	}
	best := bestOfRounds([]func(){probeWindow(c.scanSimilarSlot), probeWindow(c.findSimilarSlot), func() { rig.scans(t, perRound) }})
	t.Logf("%d-block window over %d slots: %d ns per indexed probe, %d ns per linear probe, %d us per scan",
		scanProbeWindow, maxSlotProbe, int64(best[0])/(perRound*scanProbeWindow),
		int64(best[1])/(perRound*scanProbeWindow), best[2].Microseconds()/perRound)
	if indexed, linear := best[0], best[1]; 4*indexed > linear {
		t.Fatalf("%d windows of probes cost %v through the probe index, %v through findSimilarSlot: more than a quarter",
			perRound, indexed, linear)
	}
}

// reclaimScales are the populations of slot-less blocks colder than the
// victim that BenchmarkWriteThroughReclaim and its gate compare.
var reclaimScales = []int64{0, 4 << 10, 32 << 10}

// reclaimSlots is the SSD size of the reclaim rigs: every slot holds a
// write-through, so each further one reclaims the coldest.
const reclaimSlots = 64

// newReclaimRig tracks the given number of slot-less blocks (read once,
// never touched again) and then fills a 64-slot SSD with write-throughs:
// every further write of unrelated content has to reclaim the coldest
// write-through, which sits ahead of all the slot-less blocks in a walk
// from the LRU tail.
func newReclaimRig(tb testing.TB, colder int64) *testRig {
	cfg := NewDefaultConfig(colder+(1<<20), reclaimSlots, 64<<10, 64*blockdev.BlockSize)
	cfg.MetadataBlocks = int(colder) + 4096
	cfg.ScanPeriod = 1 << 30
	cfg.FlushPeriodOps = 0
	cfg.HeatmapDecayOps = 0
	rig := newTestRig(tb, cfg)
	rig.hdd.SetFill(fillByLBA)
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < colder; lba++ {
		if _, err := rig.c.ReadBlock(lba, buf); err != nil {
			tb.Fatal(err)
		}
	}
	rig.writeThroughs(tb, reclaimSlots, buf)
	if rig.c.FreeSlotCount() != 0 || rig.c.Stats.WriteThroughSSD != reclaimSlots {
		tb.Fatalf("SSD not full of write-throughs: %d free slots, %d written through",
			rig.c.FreeSlotCount(), rig.c.Stats.WriteThroughSSD)
	}
	return rig
}

// writeThroughs issues n writes of unrelated content to LBAs never
// written before (past the slot-less range).
func (rig *testRig) writeThroughs(tb testing.TB, n int, buf []byte) {
	c := rig.c
	lba := c.cfg.VirtualBlocks - (1 << 20) + c.Stats.Writes
	for i := 0; i < n; i++ {
		fillByLBA(lba, buf)
		if _, err := c.WriteBlock(lba, buf); err != nil {
			tb.Fatal(err)
		}
		lba++
	}
}

// BenchmarkWriteThroughReclaim reports the cost of a write-through that
// has to reclaim a slot, with three populations of slot-less blocks
// colder than the victim. The victim is the write-through sublist's
// tail, so ns/op must not grow with the population
// (TestAllocGateSlotWalksScaling holds it to 2x).
func BenchmarkWriteThroughReclaim(b *testing.B) {
	for _, colder := range reclaimScales {
		rig := newReclaimRig(b, colder)
		b.Run(fmt.Sprintf("colder=%dk", colder>>10), func(b *testing.B) {
			buf := make([]byte, blockdev.BlockSize)
			b.ReportAllocs()
			b.ResetTimer()
			rig.writeThroughs(b, b.N, buf)
		})
	}
}

// TestAllocGateSlotWalksScaling is the gate on those two benchmarks. A
// probe allocates nothing at any slot population, and a reclaiming
// write-through reclaims exactly one slot and allocates the same with
// 32 Ki colder slot-less blocks as with none; with -timing-gates,
// neither costs more than twice as much at its largest population as at
// its smallest.
func TestAllocGateSlotWalksScaling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts and timings are inflated under the race detector")
	}
	const probesPerRound, writesPerRound = 20000, 5000
	var probeRuns, reclaimRuns []func()
	for _, slots := range slotScales {
		rig, r := newProbeRig(t, slots), sim.NewRand(1)
		if allocs := testing.AllocsPerRun(10, func() { rig.probes(100, r) }); allocs != 0 {
			t.Errorf("slots=%d: %v allocations per 100 probes, want 0", slots, allocs)
		}
		probeRuns = append(probeRuns, func() { rig.probes(probesPerRound, r) })
	}
	buf := make([]byte, blockdev.BlockSize)
	var allocs []float64
	for _, colder := range reclaimScales {
		rig := newReclaimRig(t, colder)
		rig.writeThroughs(t, writesPerRound, buf) // warm the pools, wrap into steady state
		before := rig.c.Stats.WritebacksHome
		allocs = append(allocs, testing.AllocsPerRun(10, func() { rig.writeThroughs(t, 100, buf) }))
		if got := rig.c.Stats.WritebacksHome - before; got != 1100 {
			t.Fatalf("colder=%d: %d reclaims in 1100 write-throughs, want one each", colder, got)
		}
		if tail := rig.c.lru.tail; colder > 0 && (tail.slotRef != nil || tail.lba != 0) {
			t.Fatalf("colder=%d: LRU tail is lba %d, want the first slot-less block", colder, tail.lba)
		}
		reclaimRuns = append(reclaimRuns, func() { rig.writeThroughs(t, writesPerRound, buf) })
	}
	if small, large := allocs[0], allocs[len(allocs)-1]; large > small+100 {
		t.Errorf("100 reclaiming write-throughs allocate %v objects with %d colder blocks, %v with none",
			large, reclaimScales[len(reclaimScales)-1], small)
	}
	if !*timingGates {
		return
	}
	for _, g := range []struct {
		name  string
		per   int
		runs  []func()
		sizes []int64
	}{
		{"similarity probe", probesPerRound, probeRuns, slotScales},
		{"reclaiming write-through", writesPerRound, reclaimRuns, reclaimScales},
	} {
		best := bestOfRounds(g.runs)
		for i, n := range g.sizes {
			t.Logf("%s at %d: %d ns", g.name, n, int64(best[i])/int64(g.per))
		}
		if small, large := best[0], best[len(best)-1]; large > 2*small {
			t.Errorf("%s costs %v per %d at %d, %v at %d: more than 2x",
				g.name, large, g.per, g.sizes[len(g.sizes)-1], small, g.sizes[0])
		}
	}
}

// scanWindows are the scan windows BenchmarkScanIdleWindow and its gate
// compare.
var scanWindows = []int64{256, 4096}

// newIdleScanRig is a probe rig whose scan window is its whole LRU:
// every tracked block is a write-through with a slot of its own, the
// state a scan finds on a workload whose working set is attached.
func newIdleScanRig(tb testing.TB, window int64) *testRig {
	rig := newProbeRig(tb, window)
	rig.c.cfg.ScanWindow = int(window)
	if n := rig.c.lru.len(); int64(n) != window || !rig.c.scanWindowIdle() {
		tb.Fatalf("window=%d: %d blocks tracked, idle=%v", window, n, rig.c.scanWindowIdle())
	}
	return rig
}

// idleScans runs n scans, none of which has anything to attach.
func (rig *testRig) idleScans(tb testing.TB, n int) {
	for i := 0; i < n; i++ {
		if err := rig.c.scan(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkScanIdleWindow reports the host cost of a scan over a fully
// attached window. The modelled controller examines the window (the
// candidates and the storage-CPU charge grow with it); the host answers
// from the unattached count, so ns/op must not
// (TestAllocGateScanIdle holds it to 2x across 16x).
func BenchmarkScanIdleWindow(b *testing.B) {
	for _, window := range scanWindows {
		rig := newIdleScanRig(b, window)
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			rig.idleScans(b, b.N)
		})
	}
}

// TestAllocGateScanIdle is the gate on that benchmark: an idle scan
// allocates nothing and still accounts for its whole window; with
// -timing-gates, it costs at most twice as much at window 4096 as at
// 256 (collecting, grouping and sorting the window grew with it).
func TestAllocGateScanIdle(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts and timings are inflated under the race detector")
	}
	const perRound = 2000000
	var runs []func()
	for _, window := range scanWindows {
		rig := newIdleScanRig(t, window)
		before, cpu := rig.c.Stats, rig.c.cpu.StorageTime
		if allocs := testing.AllocsPerRun(10, func() { rig.idleScans(t, 100) }); allocs != 0 {
			t.Errorf("window=%d: %v allocations per 100 idle scans, want 0", window, allocs)
		}
		after := rig.c.Stats
		if scans := after.Scans - before.Scans; scans != 1100 || after.ScanCandidates-before.ScanCandidates != scans*window ||
			rig.c.cpu.StorageTime-cpu != rig.c.costs.ScanPerBlock*sim.Duration(scans*window) {
			t.Fatalf("window=%d: %d scans examined %d candidates for %v of storage CPU, want 1100 scans of the whole window",
				window, scans, after.ScanCandidates-before.ScanCandidates, rig.c.cpu.StorageTime-cpu)
		}
		runs = append(runs, func() { rig.idleScans(t, perRound) })
	}
	if !*timingGates {
		return
	}
	best := bestOfRounds(runs)
	for i, window := range scanWindows {
		t.Logf("window=%d: %.1f ns per idle scan", window, float64(best[i])/perRound)
	}
	if small, large := best[0], best[1]; large > 2*small {
		t.Fatalf("%d idle scans cost %v at window %d, %v at %d: more than 2x",
			perRound, large, scanWindows[1], small, scanWindows[0])
	}
}

// newCommitRig builds a controller with a 128-block log over a virtual
// disk of the given size and wraps the log a few times with writes to
// the first 2048 LBAs, so commits run against a full log that the
// compactor has to keep open.
func newCommitRig(tb testing.TB, virtualBlocks int64) (*testRig, *sim.Rand) {
	cfg := NewDefaultConfig(virtualBlocks, 256, 64<<10, 256<<10)
	cfg.LogBlocks = 128
	cfg.ScanPeriod = 100
	cfg.ScanWindow = 400
	cfg.FlushPeriodOps = 32
	cfg.FlushDirtyBytes = 32 << 10
	rig, r := newTestRig(tb, cfg), sim.NewRand(5)
	rig.commits(tb, 20000, r)
	return rig, r
}

// commits writes n similar blocks at random among the first 2048 LBAs
// (the controller commits every FlushPeriodOps of them).
func (rig *testRig) commits(tb testing.TB, n int, r *sim.Rand) {
	for i := 0; i < n; i++ {
		lba := int64(r.Intn(2048))
		if _, err := rig.c.WriteBlock(lba, genContent(r, int(lba%4), 0.03)); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestAllocGateCommitScaling pins that nothing on the commit and
// compaction path walks the LBA table: with -timing-gates, the same
// writes against the same 128-block log cost at most twice as much on a
// 1 Mi-block virtual disk as on a 4 Ki-block one (one table walk per
// commit would cost hundreds of times more). Without the flag it checks
// only that the runs commit and compact.
func TestAllocGateCommitScaling(t *testing.T) {
	if race.Enabled {
		t.Skip("timings are inflated under the race detector")
	}
	const perRound = 5000
	scales := []int64{1 << 12, 1 << 20}
	if !*timingGates {
		scales = scales[:1]
	}
	var runs []func()
	for _, vb := range scales {
		rig, r := newCommitRig(t, vb)
		flushes, cleans := rig.c.Stats.FlushRuns, rig.c.Stats.LogCleanerRuns
		rig.commits(t, perRound, r)
		if f, cl := rig.c.Stats.FlushRuns-flushes, rig.c.Stats.LogCleanerRuns-cleans; f < perRound/64 || cl == 0 {
			t.Fatalf("VirtualBlocks=%d: %d commits and %d compactions in %d writes: the log is not under pressure", vb, f, cl, perRound)
		}
		if err := rig.c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, func() { rig.commits(t, perRound, r) })
	}
	if !*timingGates {
		return
	}
	best := bestOfRounds(runs)
	for i, vb := range scales {
		t.Logf("VirtualBlocks=%d: %d ns per write", vb, int64(best[i])/perRound)
	}
	if small, large := best[0], best[1]; large > 2*small {
		t.Fatalf("%d writes cost %v at %d virtual blocks, %v at %d: more than 2x",
			perRound, large, scales[1], small, scales[0])
	}
}

// TestAllocGateCompactingWriteBytes gates a write loop whose log is full
// and mostly dead: 2 Ki blocks rewrite three 16-byte fields at random
// over a 256-block log, with delta RAM for a quarter of them, so the
// cleaner runs at every commit on victims whose records are mostly
// superseded, and a live one whose delta left RAM has to be read back
// from the victim's own block. rescueTxn parses that block in place and
// copies the one delta it keeps; copying every record's delta to use
// one (217 B/op here) does not fit under the gate.
func TestAllocGateCompactingWriteBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cfg := NewDefaultConfig(1<<12, 256, 32<<10, 256<<10)
	cfg.LogBlocks = 256
	cfg.MetadataBlocks = 4096
	cfg.ScanPeriod = 100
	cfg.ScanWindow = 400
	cfg.FlushPeriodOps = 32
	rig, r := newTestRig(t, cfg), sim.NewRand(5)
	c := rig.c
	var families [4][]byte
	for i := range families {
		families[i] = genContent(r, i, 0)
	}
	write := func() {
		lba := int64(r.Intn(2048))
		b := families[lba%4]
		field := []int{100, 1700, 3900}[r.Intn(3)]
		for i := 0; i < 16; i++ {
			b[field+i] = byte(r.Uint64())
		}
		if _, err := c.WriteBlock(lba, b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40000; i++ {
		write() // wrap the log, reach steady capacities
	}
	const runs = 20000
	cleans, rescued := c.Stats.LogCleanerRuns, c.Stats.DeltasRescued
	got := bytesPerOp(runs, write)
	if cl, re := c.Stats.LogCleanerRuns-cleans, c.Stats.DeltasRescued-rescued; cl < runs/64 || re < runs/8 {
		t.Fatalf("%d compactions rescuing %d deltas in %d writes: the log is not under pressure", cl, re, runs)
	}
	if got > 185 {
		t.Fatalf("compacting WriteBlock allocated %d B/op, want <= 185 (retained delta, bookkeeping, one copy per rescued record)", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocGateFirstTouchReadBytes gates the first read of an LBA the
// controller has no record of: getOrLoad reads the home block through a
// pooled buffer and caches a copy, evicting another block's. What may
// remain per read is the new block's record and index growth; a 4 KB
// buffer that does not come back to the pool does not fit under the gate.
func TestAllocGateFirstTouchReadBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const warm, runs = 256, 1000
	cfg := NewDefaultConfig(warm+runs, 64, 64<<10, 64*blockdev.BlockSize)
	cfg.ScanPeriod = 1 << 30
	cfg.FlushPeriodOps = 0
	cfg.HeatmapDecayOps = 0
	rig := newTestRig(t, cfg)
	rig.hdd.SetFill(fillByLBA)
	c := rig.c
	buf := make([]byte, blockdev.BlockSize)
	lba := int64(0)
	read := func() {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		lba++
	}
	for lba < warm {
		read() // warm up: data RAM fills and replacement begins
	}
	misses := c.Stats.ReadHDDMisses
	if got := bytesPerOp(runs, read); got > 1024 {
		t.Fatalf("first-touch ReadBlock allocated %d B/op, want <= 1024 (the block's record + index growth)", got)
	}
	if got := c.Stats.ReadHDDMisses - misses; got != runs {
		t.Fatalf("%d first-touch home reads in %d reads, want one each", got, runs)
	}
}

// TestAllocGateLogLoadReadBytes gates the read of a block whose delta
// lives only in the log while delta RAM has no room to keep it:
// loadDeltaBlock reads the packed log block to prefetch, the prefetch is
// refused, and deltaFromLog reads it again for the bytes — two pooled
// buffers per read. What may remain is the two decodes' copies of the
// one small record; a 4 KB buffer that does not come back to the pool
// does not fit under the gate.
func TestAllocGateLogLoadReadBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rig := newTestRig(t, smallConfig())
	c := rig.c
	base := genContent(sim.NewRand(88), 2, 0)
	if _, err := c.WriteBlock(9, base); err != nil {
		t.Fatal(err)
	}
	base[100]++
	if _, err := c.WriteBlock(9, base); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	v := c.lbas[9].v
	if v.deltaRAM == nil || v.deltaDirty || !c.deltaLogged(v) {
		t.Fatalf("rig: want a clean delta with a durable log record, got deltaRAM=%v dirty=%v logged=%v",
			v.deltaRAM != nil, v.deltaDirty, c.deltaLogged(v))
	}
	// Drop the RAM copies and leave delta RAM no room for a prefetch.
	c.releaseDelta(v)
	held := c.deltaBudget.Free()
	c.deltaBudget.Reserve(held)
	buf := make([]byte, blockdev.BlockSize)
	read := func() {
		c.releaseData(v)
		if _, err := c.ReadBlock(9, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		read()
	}
	loads := c.Stats.ReadLogLoads
	if got := bytesPerOp(1000, read); got > 1024 {
		t.Fatalf("log-load ReadBlock allocated %d B/op, want <= 1024 (two decodes of one small record)", got)
	}
	if n := c.Stats.ReadLogLoads - loads; n != 1000 || v.deltaRAM != nil {
		t.Fatalf("rig: %d log loads in 1000 reads, prefetch kept=%v; want one each and every prefetch refused", n, v.deltaRAM != nil)
	}
	c.deltaBudget.Release(held)
	if string(buf) != string(base) {
		t.Fatal("log-load read returned wrong content")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
