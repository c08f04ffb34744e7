package core

import (
	"bytes"
	"slices"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/fault"
	"icash/internal/sim"
	"icash/internal/spec"
)

// faultRig is a controller whose devices sit behind fault wrappers.
type faultRig struct {
	c    *Controller
	ssdF *fault.Device
	hddF *fault.Device
}

func newFaultRig(t *testing.T, cfg Config, ssdCfg, hddCfg fault.Config) *faultRig {
	t.Helper()
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
	hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
	ssdF := fault.Wrap(ssd, ssdCfg)
	hddF := fault.Wrap(hdd, hddCfg)
	c, err := New(cfg, ssdF, hddF, clock, cpu)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &faultRig{c: c, ssdF: ssdF, hddF: hddF}
}

// TestRequestValidation table-drives CheckRange/CheckBuffer propagation
// through the controller's public request entry points: invalid requests
// are rejected up front and leave no trace in controller state.
func TestRequestValidation(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	good := make([]byte, blockdev.BlockSize)
	short := make([]byte, blockdev.BlockSize-1)

	cases := []struct {
		name  string
		read  bool
		lba   int64
		buf   []byte
		wantE bool
	}{
		{"read ok", true, 0, good, false},
		{"write ok", false, 0, good, false},
		{"read negative lba", true, -1, good, true},
		{"write negative lba", false, -5, good, true},
		{"read past end", true, c.cfg.VirtualBlocks, good, true},
		{"write past end", false, c.cfg.VirtualBlocks + 7, good, true},
		{"read short buffer", true, 1, short, true},
		{"write short buffer", false, 1, short, true},
		{"read nil buffer", true, 1, nil, true},
		{"write nil buffer", false, 1, nil, true},
	}
	for _, tc := range cases {
		var err error
		if tc.read {
			_, err = c.ReadBlock(tc.lba, tc.buf)
		} else {
			_, err = c.WriteBlock(tc.lba, tc.buf)
		}
		if tc.wantE && err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
		if !tc.wantE && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants violated: %v", tc.name, err)
		}
	}
}

// TestFailedPromotionKeepsInvariants forces every SSD program to fail:
// reference installation and write-through must unwind cleanly (slots
// retired, content falling back to RAM/home) with no metadata damage
// and no wrong answers.
func TestFailedPromotionKeepsInvariants(t *testing.T) {
	cfg := smallConfig()
	rig := newFaultRig(t, cfg,
		fault.Config{Seed: 1, Rates: fault.Rates{WriteMedia: 1}},
		fault.Config{Seed: 2})
	c := rig.c
	r := sim.NewRand(42)
	model := make(map[int64][]byte)
	buf := make([]byte, blockdev.BlockSize)

	for op := 0; op < 8000; op++ {
		lba := int64(r.Intn(1024))
		if r.Float64() < 0.4 {
			content := genContent(r, int(lba%7), 0.05)
			if _, err := c.WriteBlock(lba, content); err != nil {
				t.Fatalf("op %d: write: %v", op, err)
			}
			model[lba] = content
		} else {
			if _, err := c.ReadBlock(lba, buf); err != nil {
				t.Fatalf("op %d: read: %v", op, err)
			}
			want, ok := model[lba]
			if !ok {
				want = make([]byte, blockdev.BlockSize)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("op %d: read lba %d wrong content", op, lba)
			}
		}
	}
	if c.Stats.SSDWriteFaults == 0 {
		t.Error("workload never hit the SSD program-failure path")
	}
	if c.Stats.SlotsRetired == 0 {
		t.Error("failed installs should retire slots")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after failed promotions: %v", err)
	}
}

// TestSlotCorruptionScrubRepair populates the reference store, corrupts
// every SSD slot, and checks that continued reads self-heal: damaged
// slots are scrubbed and repaired from a redundant copy (donor RAM or
// the HDD home backup), and any block whose content is genuinely
// unrecoverable is accounted in ScrubDataLoss — never silently wrong.
func TestSlotCorruptionScrubRepair(t *testing.T) {
	cfg := smallConfig()
	rig := newFaultRig(t, cfg, fault.Config{Seed: 3}, fault.Config{Seed: 4})
	c := rig.c
	r := sim.NewRand(11)
	model := make(map[int64][]byte)
	buf := make([]byte, blockdev.BlockSize)

	for op := 0; op < 8000; op++ {
		lba := int64(r.Intn(1024))
		if r.Float64() < 0.4 {
			content := genContent(r, int(lba%7), 0.05)
			if _, err := c.WriteBlock(lba, content); err != nil {
				t.Fatalf("op %d: write: %v", op, err)
			}
			model[lba] = content
		} else if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("op %d: read: %v", op, err)
		}
	}
	if c.Stats.RefsSelected == 0 {
		t.Fatal("workload never populated the reference store")
	}

	// Fixed-seed corruption: every slot's flash goes bad at once.
	for idx := int64(0); idx < cfg.SSDBlocks; idx++ {
		rig.ssdF.InjectBad(idx)
	}

	mismatches := int64(0)
	for lba := int64(0); lba < 1024; lba++ {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("read lba %d after corruption: %v", lba, err)
		}
		want, ok := model[lba]
		if !ok {
			want = make([]byte, blockdev.BlockSize)
		}
		if !bytes.Equal(buf, want) {
			mismatches++
		}
	}
	if c.Stats.SlotScrubs == 0 {
		t.Error("corrupted slots never triggered a scrub")
	}
	if c.Stats.SlotScrubRepairs == 0 {
		t.Error("no slot was repaired from a redundant copy")
	}
	if loss := c.Stats.ScrubDataLoss; mismatches > loss {
		t.Errorf("%d wrong reads but only %d accounted as scrub data loss", mismatches, loss)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after scrub storm: %v", err)
	}
}

// TestScrubSlotUnrewritable drives scrubSlot's repaired-but-unrewritable
// branch: every live slot's content is recovered (donor RAM or the
// CRC-valid HDD home backup) but the flash block refuses the heal
// write. Each such slot must be retired and every dependent rebuilt —
// from its RAM data, the recovered base (write-through), or the base
// plus its delta from RAM or the log — and written home, so no read
// disagrees with the spec and ScrubDataLoss counts nothing there. Slots
// with no valid repair source take the salvage-and-count branch; their
// wrong reads must all be accounted as loss.
func TestScrubSlotUnrewritable(t *testing.T) {
	cfg := smallConfig()
	cfg.DeltaRAMBytes = 64 << 10 // deltas spill: some live only in the log
	cfg.DataRAMBytes = 16 * blockdev.BlockSize
	clock := sim.NewClock()
	stuck := make(map[int64]bool)
	ssd := &badWriteDevice{
		MemDevice: blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond),
		bad:       func(lba int64) bool { return stuck[lba] },
	}
	hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
	c, err := New(cfg, ssd, hdd, clock, cpumodel.NewAccountant())
	if err != nil {
		t.Fatal(err)
	}
	disk := spec.New(nil)
	r := sim.NewRand(7)
	buf := make([]byte, blockdev.BlockSize)
	const span = 1024
	for op := 0; op < 8000; op++ {
		lba := int64(r.Intn(span))
		if r.Float64() < 0.3 {
			content := genContent(r, int(lba%7), 0.02)
			if _, err := c.WriteBlock(lba, content); err != nil {
				t.Fatalf("op %d: write: %v", op, err)
			}
			disk.Write(lba, content, true)
		} else if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("op %d: read: %v", op, err)
		}
	}

	// Which source each dependent's content must come from.
	var fromData, fromBase, fromRAMDelta, fromLogDelta int
	repaired := make(map[int64]bool) // dependents of slots taking the branch
	slots := append([]*refSlot(nil), c.liveSlots()...)
	for _, s := range slots {
		deps := c.slotDependents(s)
		var data, base, ramDelta, logDelta int
		for _, v := range deps {
			switch {
			case v.dataRAM != nil:
				data++
			case v.ssdCurrent:
				base++
			case v.deltaRAM != nil:
				ramDelta++
			case c.deltaLogged(v):
				logDelta++
			}
		}
		stuck[s.index] = true
		retired, faults, loss := c.Stats.SlotsRetired, c.Stats.SSDWriteFaults, c.Stats.ScrubDataLoss
		if _, err := c.scrubSlot(s); err == nil {
			t.Fatalf("slot %d: scrub succeeded over an unwritable block", s.index)
		}
		if c.Stats.SlotsRetired != retired+1 || !slices.Contains(c.retiredSlots, s.index) {
			t.Fatalf("slot %d: SlotsRetired %d -> %d, want it retired", s.index, retired, c.Stats.SlotsRetired)
		}
		if c.Stats.SSDWriteFaults == faults {
			continue // no repair source validated: salvageSlot's branch
		}
		if got := c.Stats.ScrubDataLoss - loss; got != 0 {
			t.Fatalf("slot %d: repaired content, yet %d of %d dependents counted lost", s.index, got, len(deps))
		}
		for _, v := range deps {
			repaired[v.lba] = true
		}
		fromData += data
		fromBase += base
		fromRAMDelta += ramDelta
		fromLogDelta += logDelta
	}
	if fromData == 0 || fromBase == 0 || fromRAMDelta == 0 || fromLogDelta == 0 {
		t.Fatalf("repaired slots' dependents rebuilt from RAM data %d, base %d, RAM delta %d, log delta %d: want every source",
			fromData, fromBase, fromRAMDelta, fromLogDelta)
	}
	for lba := int64(0); lba < span; lba++ {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("read lba %d after the scrubs: %v", lba, err)
		}
		if err := disk.Check(lba, buf); err != nil && repaired[lba] {
			t.Errorf("dependent of a repaired slot: %v", err)
		}
	}
	if wrong := int64(disk.WrongLBAs()); wrong > c.Stats.ScrubDataLoss {
		t.Errorf("%d wrong reads but only %d accounted as scrub data loss", wrong, c.Stats.ScrubDataLoss)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after the scrubs: %v", err)
	}
}

// TestSSDLossDegradedMode pulls the whole SSD mid-run: the controller
// must flip into HDD-only degraded mode, keep serving every request,
// and account any block whose newest content died with the SSD.
func TestSSDLossDegradedMode(t *testing.T) {
	cfg := smallConfig()
	rig := newFaultRig(t, cfg, fault.Config{Seed: 5}, fault.Config{Seed: 6})
	c := rig.c
	r := sim.NewRand(23)
	model := make(map[int64][]byte)
	buf := make([]byte, blockdev.BlockSize)

	for op := 0; op < 8000; op++ {
		if op == 4000 {
			rig.ssdF.Lose()
		}
		lba := int64(r.Intn(1024))
		if r.Float64() < 0.4 {
			content := genContent(r, int(lba%7), 0.05)
			if _, err := c.WriteBlock(lba, content); err != nil {
				t.Fatalf("op %d: write: %v", op, err)
			}
			model[lba] = content
		} else if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("op %d: read: %v", op, err)
		}
	}
	if !c.Degraded() {
		t.Fatal("controller never entered degraded mode")
	}
	if c.Stats.DegradeEvents != 1 {
		t.Errorf("DegradeEvents = %d, want 1", c.Stats.DegradeEvents)
	}
	if c.Stats.DegradedOps == 0 {
		t.Error("no operations accounted as degraded")
	}

	mismatches := int64(0)
	for lba := int64(0); lba < 1024; lba++ {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("degraded read lba %d: %v", lba, err)
		}
		want, ok := model[lba]
		if !ok {
			want = make([]byte, blockdev.BlockSize)
		}
		if !bytes.Equal(buf, want) {
			mismatches++
		}
	}
	if loss := c.Stats.DegradedDataLoss + c.Stats.ScrubDataLoss; mismatches > loss {
		t.Errorf("%d wrong reads but only %d accounted as data loss", mismatches, loss)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants in degraded mode: %v", err)
	}
}

// TestDeterministicFaultReplay runs the same faulty workload twice with
// identical seeds and requires bit-identical statistics — the property
// the crash-point harness depends on.
func TestDeterministicFaultReplay(t *testing.T) {
	run := func() (Stats, fault.Stats, fault.Stats) {
		cfg := smallConfig()
		rig := newFaultRig(t, cfg,
			fault.Config{Seed: 7, Rates: fault.Rates{Transient: 0.01, WriteMedia: 0.002}},
			fault.Config{Seed: 8, Rates: fault.Rates{Transient: 0.01}})
		c := rig.c
		r := sim.NewRand(99)
		buf := make([]byte, blockdev.BlockSize)
		for op := 0; op < 6000; op++ {
			lba := int64(r.Intn(1024))
			if r.Float64() < 0.4 {
				if _, err := c.WriteBlock(lba, genContent(r, int(lba%7), 0.05)); err != nil {
					t.Fatalf("op %d: write: %v", op, err)
				}
			} else if _, err := c.ReadBlock(lba, buf); err != nil {
				t.Fatalf("op %d: read: %v", op, err)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return c.Stats, rig.ssdF.Stats, rig.hddF.Stats
	}
	s1, fs1, fh1 := run()
	s2, fs2, fh2 := run()
	if s1 != s2 {
		t.Errorf("controller stats diverged:\n%+v\n%+v", s1, s2)
	}
	if fs1 != fs2 || fh1 != fh2 {
		t.Errorf("fault wrapper stats diverged")
	}
	if s1.TransientRetries == 0 {
		t.Error("transient faults never exercised the retry path")
	}
}

// TestHedgedReadCutsSlowSSD arms a fail-slow window on the SSD and
// checks the hedging path end to end: foreground reference reads that
// blow the hedge deadline issue a hedge against the CRC-validated HDD
// home backup, winning hedges bound the request at deadline + HDD time,
// and every byte served stays correct.
func TestHedgedReadCutsSlowSSD(t *testing.T) {
	cfg := smallConfig()
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
	hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
	plan := &fault.Schedule{Seed: 1}
	ssdF := fault.Wrap(ssd, fault.Config{Seed: 1, Plan: plan, Clock: clock, Station: "ssd"})
	c, err := New(cfg, ssdF, hdd, clock, cpu)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Content-local workload: the scan installs references (each backed
	// up at its donor's home) and attaches associates.
	r := sim.NewRand(42)
	model := make(map[int64][]byte)
	for op := 0; op < 2000; op++ {
		lba := int64(r.Intn(512))
		content := genContent(r, int(lba%4), 0.03)
		if _, err := c.WriteBlock(lba, content); err != nil {
			t.Fatalf("op %d: write: %v", op, err)
		}
		model[lba] = content
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// The plan is late-bound: appending a window now takes effect on the
	// next shaped operation. 1000x turns the 10 us SSD into 10 ms — far
	// past the 2 ms hedge deadline — while the HDD stays healthy.
	plan.Windows = append(plan.Windows, fault.Window{
		Station: "ssd",
		From:    clock.Now(),
		To:      clock.Now().Add(sim.Duration(10) * sim.Second),
		Factor:  1000,
	})

	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < 512; lba++ {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("read lba %d: %v", lba, err)
		}
		want, ok := model[lba]
		if !ok {
			want = make([]byte, blockdev.BlockSize)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("read lba %d: wrong content under fail-slow window", lba)
		}
	}

	st := c.Stats
	if st.DeadlineExceeded == 0 {
		t.Fatal("no foreground slot read ever blew the hedge deadline")
	}
	if st.HedgedReads == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedges issued/won = %d/%d, want both > 0", st.HedgedReads, st.HedgeWins)
	}
	if st.HedgeSavedTime <= 0 {
		t.Fatalf("HedgeSavedTime = %v, want > 0", st.HedgeSavedTime)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestQuarantineBypassAndCanary: with the SSD quarantined, slot reads
// are served from home backups (QuarantineSkips), a deterministic
// fraction still reaches the SSD as canary probes (the detector needs
// samples to re-admit), and lifting the quarantine counts a re-admit.
func TestQuarantineBypassAndCanary(t *testing.T) {
	cfg := smallConfig()
	rig := newFaultRig(t, cfg, fault.Config{Seed: 5}, fault.Config{Seed: 6})
	c := rig.c
	r := sim.NewRand(42)
	model := make(map[int64][]byte)
	buf := make([]byte, blockdev.BlockSize)
	for op := 0; op < 2000; op++ {
		lba := int64(r.Intn(512))
		content := genContent(r, int(lba%4), 0.03)
		if _, err := c.WriteBlock(lba, content); err != nil {
			t.Fatalf("op %d: write: %v", op, err)
		}
		model[lba] = content
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	c.SetSSDQuarantined(true)
	if !c.SSDQuarantined() || c.Stats.QuarantineEvents != 1 {
		t.Fatalf("quarantine entry not recorded: %+v", c.Stats)
	}
	ssdReadsBefore := rig.ssdF.Stats.Reads
	for lba := int64(0); lba < 512; lba++ {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("quarantined read lba %d: %v", lba, err)
		}
		if want := model[lba]; want != nil && !bytes.Equal(buf, want) {
			t.Fatalf("quarantined read lba %d: wrong content", lba)
		}
	}
	if c.Stats.QuarantineSkips == 0 {
		t.Fatal("quarantine never bypassed the SSD")
	}
	if c.Stats.QuarantinedOps == 0 {
		t.Fatal("QuarantinedOps not counted")
	}
	if canaries := rig.ssdF.Stats.Reads - ssdReadsBefore; canaries == 0 {
		t.Fatal("no canary probe reached the quarantined SSD")
	}

	c.SetSSDQuarantined(false)
	if c.SSDQuarantined() || c.Stats.ReadmitEvents != 1 {
		t.Fatalf("re-admission not recorded: %+v", c.Stats)
	}
}

// TestRetryDeadlineGiveUp: a device stuck returning transient timeouts
// must not be retried past the per-operation deadline — the retry loop
// gives up loudly and counts it.
func TestRetryDeadlineGiveUp(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxRetries = 100
	cfg.OpDeadline = 2 * sim.Millisecond
	rig := newFaultRig(t, cfg,
		fault.Config{Seed: 9},
		fault.Config{Seed: 10, Rates: fault.Rates{Transient: 1}})
	buf := make([]byte, blockdev.BlockSize)
	if _, err := rig.c.ReadBlock(0, buf); err == nil {
		t.Fatal("read through an always-transient HDD succeeded")
	}
	if rig.c.Stats.DeadlineGiveUps == 0 {
		t.Fatal("retry loop never gave up at the op deadline")
	}
	if err := rig.c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after give-up: %v", err)
	}
}
