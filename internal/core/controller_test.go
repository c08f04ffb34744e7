package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"unsafe"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/fault"
	"icash/internal/sim"
)

// testRig bundles a controller with in-memory devices for fast tests.
type testRig struct {
	c     *Controller
	ssd   *blockdev.MemDevice
	hdd   *blockdev.MemDevice
	clock *sim.Clock
}

func newTestRig(t testing.TB, cfg Config) *testRig {
	t.Helper()
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
	hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
	c, err := New(cfg, ssd, hdd, clock, cpu)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &testRig{c: c, ssd: ssd, hdd: hdd, clock: clock}
}

func smallConfig() Config {
	cfg := NewDefaultConfig(4096, 256, 64<<10, 256<<10)
	cfg.ScanPeriod = 100
	cfg.ScanWindow = 400
	cfg.LogBlocks = 64
	cfg.FlushPeriodOps = 128
	cfg.FlushDirtyBytes = 32 << 10
	return cfg
}

// genContent produces a block from one of nFamilies base patterns with
// mutation fraction applied, modelling the paper's content locality.
func genContent(r *sim.Rand, family int, mutFrac float64) []byte {
	b := make([]byte, blockdev.BlockSize)
	base := sim.NewRand(uint64(family) * 977)
	base.Bytes(b)
	nMut := int(mutFrac * float64(len(b)))
	for i := 0; i < nMut; i++ {
		b[r.Intn(len(b))] = byte(r.Uint64())
	}
	return b
}

// fillByLBA is a blockdev.FillFunc giving every LBA its own unrelated
// content (an xorshift64 stream seeded by the LBA), cheaply and without
// allocating.
func fillByLBA(lba int64, buf []byte) {
	x := uint64(lba)*0x9E3779B97F4A7C15 + 1
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// TestReadYourWrites drives a mixed, content-local workload against the
// controller and checks every read against a shadow model.
func TestReadYourWrites(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	r := sim.NewRand(42)
	model := make(map[int64][]byte)
	buf := make([]byte, blockdev.BlockSize)

	const lbaSpace = 1024
	for op := 0; op < 20000; op++ {
		lba := int64(r.Intn(lbaSpace))
		if r.Float64() < 0.4 {
			content := genContent(r, int(lba%7), 0.05)
			if _, err := c.WriteBlock(lba, content); err != nil {
				t.Fatalf("op %d: write lba %d: %v", op, lba, err)
			}
			model[lba] = content
		} else {
			if _, err := c.ReadBlock(lba, buf); err != nil {
				t.Fatalf("op %d: read lba %d: %v", op, lba, err)
			}
			want, ok := model[lba]
			if !ok {
				want = make([]byte, blockdev.BlockSize) // never written: zeros
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("op %d: read lba %d returned wrong content", op, lba)
			}
		}
	}
	if c.Stats.WriteDelta == 0 {
		t.Error("expected some writes to be stored as deltas")
	}
	if c.Stats.Scans == 0 {
		t.Error("expected similarity scans to run")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadYourWritesTinyRAM repeats the shadow-model check under severe
// RAM pressure so every eviction and reclamation path fires.
func TestReadYourWritesTinyRAM(t *testing.T) {
	cfg := smallConfig()
	cfg.DeltaRAMBytes = 4 << 10
	cfg.DataRAMBytes = 16 << 10
	cfg.MetadataBlocks = 64
	rig := newTestRig(t, cfg)
	c := rig.c
	r := sim.NewRand(7)
	model := make(map[int64][]byte)
	buf := make([]byte, blockdev.BlockSize)

	for op := 0; op < 10000; op++ {
		lba := int64(r.Intn(512))
		if r.Float64() < 0.5 {
			content := genContent(r, int(lba%5), 0.08)
			if _, err := c.WriteBlock(lba, content); err != nil {
				t.Fatalf("op %d: write lba %d: %v", op, lba, err)
			}
			model[lba] = content
		} else {
			if _, err := c.ReadBlock(lba, buf); err != nil {
				t.Fatalf("op %d: read lba %d: %v", op, lba, err)
			}
			want, ok := model[lba]
			if !ok {
				want = make([]byte, blockdev.BlockSize)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("op %d: read lba %d returned wrong content (evictions=%d)",
					op, lba, c.Stats.EvictVBlocks)
			}
		}
	}
	if c.Stats.EvictVBlocks == 0 {
		t.Error("expected virtual-block evictions under metadata pressure")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecovery verifies that a controller rebuilt from the devices after
// a crash (RAM lost) serves every flushed write correctly.
func TestRecovery(t *testing.T) {
	cfg := smallConfig()
	rig := newTestRig(t, cfg)
	c := rig.c
	r := sim.NewRand(99)
	model := make(map[int64][]byte)

	for op := 0; op < 5000; op++ {
		lba := int64(r.Intn(700))
		content := genContent(r, int(lba%6), 0.05)
		if _, err := c.WriteBlock(lba, content); err != nil {
			t.Fatalf("write: %v", err)
		}
		model[lba] = content
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// Crash: rebuild from devices only.
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	rc, err := Recover(cfg, rig.ssd, rig.hdd, clock, cpu)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	buf := make([]byte, blockdev.BlockSize)
	for lba, want := range model {
		if _, err := rc.ReadBlock(lba, buf); err != nil {
			t.Fatalf("post-recovery read lba %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("post-recovery read lba %d returned wrong content", lba)
		}
	}
}

// TestRecoveryAfterMoreActivity crashes a controller that has gone
// through scans, evictions and log cleaning, then checks flushed state.
func TestRecoveryAfterMoreActivity(t *testing.T) {
	cfg := smallConfig()
	cfg.LogBlocks = 16 // force log wrap + cleaning
	cfg.DeltaRAMBytes = 16 << 10
	rig := newTestRig(t, cfg)
	c := rig.c
	r := sim.NewRand(5)
	model := make(map[int64][]byte)
	buf := make([]byte, blockdev.BlockSize)

	for op := 0; op < 15000; op++ {
		lba := int64(r.Intn(400))
		if r.Float64() < 0.6 {
			content := genContent(r, int(lba%4), 0.04)
			if _, err := c.WriteBlock(lba, content); err != nil {
				t.Fatalf("write: %v", err)
			}
			model[lba] = content
		} else if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	clock := sim.NewClock()
	rc, err := Recover(cfg, rig.ssd, rig.hdd, clock, cpumodel.NewAccountant())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for lba, want := range model {
		if _, err := rc.ReadBlock(lba, buf); err != nil {
			t.Fatalf("post-recovery read lba %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("post-recovery read lba %d returned wrong content", lba)
		}
	}
	if c.Stats.LogCleanerRuns == 0 {
		t.Log("note: log cleaner never ran (log may be large enough)")
	}
}

// TestPreload verifies preloaded content is readable and counts as a
// cold read.
func TestPreload(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	want := genContent(sim.NewRand(1), 3, 0)
	if err := c.Preload(17, want); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	buf := make([]byte, blockdev.BlockSize)
	if _, err := c.ReadBlock(17, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("preloaded content mismatch")
	}
}

// TestBounds exercises range and buffer validation.
func TestBounds(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	buf := make([]byte, blockdev.BlockSize)
	if _, err := c.ReadBlock(-1, buf); err == nil {
		t.Error("negative lba read should fail")
	}
	if _, err := c.ReadBlock(c.Blocks(), buf); err == nil {
		t.Error("out-of-range read should fail")
	}
	if _, err := c.WriteBlock(0, buf[:100]); err == nil {
		t.Error("short buffer write should fail")
	}
}

// TestVMImageSharing verifies first-load pairing: cloned VM images at
// the same offsets should attach to shared references rather than
// occupying independent space.
func TestVMImageSharing(t *testing.T) {
	cfg := smallConfig()
	cfg.VMImageBlocks = 512 // 4 VM images across the 4096-block disk
	rig := newTestRig(t, cfg)
	c := rig.c
	const imgBlocks = 200
	r := sim.NewRand(11)
	// VM 0 is the "native machine": write its image, then read it so the
	// scan can select references.
	base := make([][]byte, imgBlocks)
	for i := range base {
		base[i] = genContent(r, i, 0)
	}
	buf := make([]byte, blockdev.BlockSize)
	for round := 0; round < 4; round++ {
		for i := range base {
			lba := int64(i)
			if round == 0 {
				if _, err := c.WriteBlock(lba, base[i]); err != nil {
					t.Fatal(err)
				}
			} else if _, err := c.ReadBlock(lba, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Clone VMs 1..3: preload nearly identical images, then read them.
	for vm := int64(1); vm <= 3; vm++ {
		for i := range base {
			img := append([]byte(nil), base[i]...)
			img[100] ^= 0xFF // one-byte difference
			lba := vm*cfg.VMImageBlocks + int64(i)
			if err := c.Preload(lba, img); err != nil {
				t.Fatal(err)
			}
		}
	}
	for vm := int64(1); vm <= 3; vm++ {
		for i := range base {
			lba := vm*cfg.VMImageBlocks + int64(i)
			if _, err := c.ReadBlock(lba, buf); err != nil {
				t.Fatal(err)
			}
			want := append([]byte(nil), base[i]...)
			want[100] ^= 0xFF
			if !bytes.Equal(buf, want) {
				t.Fatalf("vm %d block %d content mismatch", vm, i)
			}
		}
	}
	if c.Stats.FirstLoadPairs == 0 {
		t.Errorf("expected first-load VM pairing; refs=%d assoc=%d",
			c.Stats.RefsSelected, c.Stats.AssocFormed)
	}
}

// TestKindStringAndStats covers small helpers.
func TestKindStringAndStats(t *testing.T) {
	for k, want := range map[Kind]string{Independent: "independent", Reference: "reference", Associate: "associate", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	kc := KindCounts{Reference: 1, Associate: 8, Independent: 1}
	if kc.Total() != 10 {
		t.Errorf("Total = %d", kc.Total())
	}
	ref, assoc, indep := kc.Fractions()
	if fmt.Sprintf("%.1f %.1f %.1f", ref, assoc, indep) != "0.1 0.8 0.1" {
		t.Errorf("Fractions = %v %v %v", ref, assoc, indep)
	}
}

// TestDeltaBudgetSurvivesGroomReentrancy: with auto-flush disabled the
// journal fills under a sustained content-local write load, so delta
// stores routinely hit the budget wall and reclaim by grooming the log
// mid-store. That groom can reach back into the very block being
// stored — loadDeltaBlock re-caches its logged delta — which used to
// leak the re-cached charge when the store then replaced the delta it
// had sized against a pre-groom snapshot. The budget invariant must
// hold after every single op.
func TestDeltaBudgetSurvivesGroomReentrancy(t *testing.T) {
	cfg := smallConfig()
	cfg.FlushPeriodOps = 0
	cfg.FlushDirtyBytes = 1 << 30 // no auto-flush: maximal log pressure
	rig := newTestRig(t, cfg)
	c := rig.c
	r := sim.NewRand(21)
	buf := make([]byte, blockdev.BlockSize)
	for op := 0; op < 2000; op++ {
		lba := int64(r.Intn(512))
		var err error
		if r.Float64() < 0.4 {
			_, err = c.WriteBlock(lba, genContent(r, int(lba%5), 0.05))
		} else {
			_, err = c.ReadBlock(lba, buf)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("op %d (lba %d): %v", op, lba, err)
		}
	}
}

// TestVBlockSizeClass pins vblock inside the 128-byte malloc size class:
// one record is allocated per tracked LBA, so spilling into the 144-byte
// class shows up directly in the live heap.
func TestVBlockSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(vblock{}); got > 128 {
		t.Fatalf("vblock is %d bytes, want <= 128 (pack small fields into the tail)", got)
	}
}

// refEvictVictim is the replacement policy as it was first written, kept
// as the oracle for the data-resident sublist: walk the whole LRU from
// its tail and take the first block that holds data, is neither keep nor
// pinned, and — when dirty — can be written home. homeFails stands in
// for that write (the oracle must not touch the device).
func refEvictVictim(c *Controller, keep *vblock, homeFails func(lba int64) bool) *vblock {
	for v := c.lru.tail; v != nil; v = v.prev {
		if v == keep || v == c.pinned || v.dataRAM == nil {
			continue
		}
		if v.dataDirty && homeFails(v.lba) {
			continue
		}
		return v
	}
	return nil
}

// badWriteDevice fails writes to the device LBAs bad selects with a
// media error, every time (fault.Device heals a bad block on rewrite).
type badWriteDevice struct {
	*blockdev.MemDevice
	bad func(lba int64) bool
}

func (d *badWriteDevice) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if d.bad(lba) {
		return sim.Millisecond, fmt.Errorf("test: write lba %d: %w", lba, blockdev.ErrMedia)
	}
	return d.MemDevice.WriteBlock(lba, buf)
}

// TestEvictionMatchesReferenceWalk drives a seeded mix through every
// way a block gains, loses or re-ranks its cached data — misses, hits,
// overwrites, fresh writes, write-through, dirty RAM-only writes under
// SSD quarantine, flushes, scans, unwritable dirty victims, a crash
// recovery — with a data budget of 24 blocks, and checks each eviction
// against the linear walk it replaced.
func TestEvictionMatchesReferenceWalk(t *testing.T) {
	cfg := smallConfig()
	cfg.DataRAMBytes = 24 * blockdev.BlockSize
	cfg.SSDBlocks = 32
	cfg.MetadataBlocks = 300
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
	// While armed, a fifth of the home locations cannot be written, so
	// dirty victims there cannot be evicted.
	armed := false
	hdd := &badWriteDevice{
		MemDevice: blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond),
		bad:       func(lba int64) bool { return armed && lba%5 == 2 && lba < cfg.VirtualBlocks },
	}
	c, err := New(cfg, ssd, hdd, clock, cpu)
	if err != nil {
		t.Fatal(err)
	}

	var evictions, skippedDirty, noVictim int
	watch := func(c *Controller) {
		c.evictProbe = func(keep, victim *vblock, steps int) {
			// The probe runs before the victim's data is released, so the
			// old walk sees the state it would have chosen from; a dirty
			// victim was already written home, which is what the old
			// walk would have done on reaching it.
			want := refEvictVictim(c, keep, hdd.bad)
			if victim != want {
				t.Fatalf("eviction %d: sublist chose %s, reference walk chooses %s",
					evictions, lbaOf(victim), lbaOf(want))
			}
			for v := c.lru.dtail; v != victim; v = v.dprev {
				if v.dataDirty && v != keep && v != c.pinned {
					skippedDirty++
				}
			}
			if victim == nil {
				noVictim++
			}
			evictions++
		}
	}
	watch(c)

	r := sim.NewRand(1311)
	buf := make([]byte, blockdev.BlockSize)
	const ops = 12000
	for op := 0; op < ops; op++ {
		switch {
		case op == ops/4:
			armed = true
			c.SetSSDQuarantined(true) // writes now stay dirty in RAM
		case op == ops/2:
			armed = false
			c.SetSSDQuarantined(false)
		case op == 5*ops/8:
			if err := c.Flush(); err != nil {
				t.Fatalf("op %d: flush before crash: %v", op, err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			clock = sim.NewClock()
			if c, err = Recover(cfg, ssd, hdd, clock, cpumodel.NewAccountant()); err != nil {
				t.Fatalf("op %d: recover: %v", op, err)
			}
			watch(c)
		}
		lba := int64(r.Intn(256))
		if r.Float64() < 0.15 {
			lba = 256 + int64(r.Intn(3000)) // cold: fresh writes and one-off misses
		}
		// Requests may fail while home writes do; replacement must agree
		// with the reference walk regardless.
		switch p := r.Float64(); {
		case p < 0.50:
			_, _ = c.ReadBlock(lba, buf)
		case p < 0.97:
			_, _ = c.WriteBlock(lba, genContent(r, int(lba%6), 0.05))
		case p < 0.985:
			_ = c.Flush()
		default:
			_ = c.scan()
		}
		if op%97 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if evictions < 1000 || skippedDirty == 0 {
		t.Fatalf("mix too tame: %d evictions, %d unwritable dirty victims skipped", evictions, skippedDirty)
	}
	t.Logf("%d evictions checked, %d unwritable dirty victims skipped, %d calls found no victim",
		evictions, skippedDirty, noVictim)
}

func lbaOf(v *vblock) string {
	if v == nil {
		return "none"
	}
	return fmt.Sprintf("lba %d", v.lba)
}

// TestEvictionStepsBounded: replacement cost must not depend on how many
// blocks are tracked. With 64 Ki tracked and 64 resident, every eviction
// visits at most three sublist nodes (the tail, plus keep and pinned when
// they happen to be coldest).
func TestEvictionStepsBounded(t *testing.T) {
	const tracked, resident = 64 << 10, 64
	cfg := NewDefaultConfig(tracked, 64, 8<<20, resident*blockdev.BlockSize)
	cfg.MetadataBlocks = tracked + 1024
	cfg.LogBlocks = 64
	rig := newTestRig(t, cfg)
	c := rig.c
	// Unrelated content per LBA: no block attaches to another's reference,
	// so nothing but the metadata cap could drop a tracked block.
	rig.hdd.SetFill(fillByLBA)
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < tracked; lba++ {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.lru.len(); got != tracked {
		t.Fatalf("tracking %d blocks, want %d", got, tracked)
	}
	evictions, maxSteps := 0, 0
	c.evictProbe = func(_, victim *vblock, steps int) {
		if victim == nil {
			t.Fatal("no victim among 64 resident blocks")
		}
		evictions++
		if steps > maxSteps {
			maxSteps = steps
		}
	}
	r := sim.NewRand(5)
	for op := 0; op < 5000; op++ {
		lba := int64(r.Intn(tracked))
		var err error
		if op%4 == 3 {
			_, err = c.WriteBlock(lba, genContent(r, int(lba%6), 0.05))
		} else {
			_, err = c.ReadBlock(lba, buf)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if evictions < 4000 {
		t.Fatalf("only %d evictions in 5000 cold requests", evictions)
	}
	if maxSteps > 3 {
		t.Fatalf("an eviction visited %d sublist nodes with %d tracked / %d resident, want <= 3",
			maxSteps, tracked, resident)
	}
}

// TestFreeLogBlockCountTracksLap holds the running free-log-block count
// to a full frontier lap after every request, through log wrap,
// compaction, shedding, log blocks retired by write failures, and a
// recovery that retires an unreadable one.
func TestFreeLogBlockCountTracksLap(t *testing.T) {
	cfg := smallConfig()
	cfg.LogBlocks = 16
	cfg.DeltaRAMBytes = 16 << 10
	clock := sim.NewClock()
	ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
	hdd := &badWriteDevice{
		MemDevice: blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond),
		bad:       func(lba int64) bool { b := lba - cfg.VirtualBlocks; return b == 3 || b == 11 },
	}
	c, err := New(cfg, ssd, hdd, clock, cpumodel.NewAccountant())
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(17)
	buf := make([]byte, blockdev.BlockSize)
	minFree := cfg.LogBlocks
	drive := func(c *Controller, ops int) {
		t.Helper()
		for op := 0; op < ops; op++ {
			lba := int64(r.Intn(400))
			var err error
			if r.Float64() < 0.7 {
				_, err = c.WriteBlock(lba, genContent(r, int(lba%4), 0.04))
			} else {
				_, err = c.ReadBlock(lba, buf)
			}
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			got, want := c.countFreeLogBlocks(), c.lapFreeLogBlocks()
			if got != want {
				t.Fatalf("op %d: running count says %d free log blocks, a lap finds %d", op, got, want)
			}
			if got < minFree {
				minFree = got
			}
		}
	}
	drive(c, 6000)
	if c.Stats.BadLogBlocks != 2 || c.Stats.LogCleanerRuns == 0 || minFree > cfg.LogBlocks/2 {
		t.Fatalf("mix too tame: %d log blocks retired, %d cleaner runs, never fewer than %d free",
			c.Stats.BadLogBlocks, c.Stats.LogCleanerRuns, minFree)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Crash; block 6 of the journal has gone unreadable meanwhile.
	unreadable := fault.Wrap(hdd, fault.Config{})
	unreadable.InjectBad(cfg.VirtualBlocks + 6)
	clock = sim.NewClock()
	rc, err := Recover(cfg, ssd, unreadable, clock, cpumodel.NewAccountant())
	if err != nil {
		t.Fatal(err)
	}
	if rc.Stats.BadLogBlocks != 1 {
		t.Fatalf("recovery retired %d log blocks, want the unreadable one", rc.Stats.BadLogBlocks)
	}
	drive(rc, 3000)
	if err := rc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
