package core

import (
	"bytes"
	"errors"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

// This file tests the end-to-end integrity layer (DESIGN.md §14):
// checksum verification at the layer crossings, the background
// scrubber, verified repair, and the poison/overwrite lifecycle for
// blocks no redundant copy can save.

// driveLocalWorkload runs a content-local mixed workload and returns
// the shadow model, leaving the controller with a populated slot store.
func driveLocalWorkload(t *testing.T, c *Controller, seed uint64, ops int) map[int64][]byte {
	t.Helper()
	r := sim.NewRand(seed)
	model := make(map[int64][]byte)
	buf := make([]byte, blockdev.BlockSize)
	const lbaSpace = 1024
	for op := 0; op < ops; op++ {
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
		}
	}
	return model
}

// runScrubPass drives the scrubber through at least one complete pass
// over both cursor domains by advancing the simulated clock.
func runScrubPass(t *testing.T, rig *testRig) {
	t.Helper()
	c := rig.c
	c.SetScrub(ScrubConfig{Interval: sim.Millisecond, Batch: 64})
	start := c.Stats.ScrubPasses
	for i := 0; i < 100000 && c.Stats.ScrubPasses == start; i++ {
		rig.clock.Advance(sim.Millisecond)
		c.ScrubPoll()
	}
	if c.Stats.ScrubPasses == start {
		t.Fatal("scrubber never completed a full pass")
	}
}

// findHomeBackedSlot returns a dependent vblock and its slot where the
// slot's HDD home backup is still valid — i.e. scrubSlot has a
// guaranteed repair source that is not the SSD copy itself.
func findHomeBackedSlot(rig *testRig) (*vblock, *refSlot) {
	c := rig.c
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < c.cfg.VirtualBlocks; lba++ {
		v := c.lbas[lba].v
		if v == nil || v.slotRef == nil || v.dataDirty {
			continue
		}
		s := v.slotRef
		if s.homeLBA < 0 || c.lbas[s.homeLBA].poison || c.lbas[s.homeLBA].sum != s.crc {
			continue
		}
		if _, err := rig.hdd.ReadBlock(s.homeLBA, buf); err != nil || contentCRC(buf) != s.crc {
			continue
		}
		return v, s
	}
	return nil, nil
}

// TestLyingSSDReadNeverReachesHost is the regression test for the
// latent repair gap: an SSD that silently serves flipped bits (no I/O
// error) on a reference-slot read. The checksum in the slot map must
// catch it, the scrubSlot repair path must heal the flash copy from a
// redundant one, and the host read must complete with the correct
// bytes — the lie never crosses the host boundary.
func TestLyingSSDReadNeverReachesHost(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	model := driveLocalWorkload(t, c, 42, 20000)
	// Flush: a consistency point gives every write-through slot a home
	// backup (backupWriteThroughs), so repair has a redundant copy.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	victim, slot := findHomeBackedSlot(rig)
	if victim == nil {
		t.Fatal("workload produced no slot with a valid home backup")
	}
	// Force the next read of the victim onto the SSD: drop its clean RAM
	// copy, and the donor's too if that could short-circuit slotContent.
	if victim.dataRAM != nil {
		c.releaseData(victim)
	}
	if slot.donor >= 0 && slot.donor != victim.lba {
		if dv := c.lbas[slot.donor].v; dv != nil && dv.dataRAM != nil && !dv.dataDirty &&
			contentCRC(c.readData(dv, make([]byte, blockdev.BlockSize))) == slot.crc {
			c.releaseData(dv)
		}
	}
	if err := rig.ssd.Corrupt(slot.index, 4097); err != nil {
		t.Fatalf("corrupt ssd: %v", err)
	}

	det0, rep0 := c.Stats.CorruptionsDetected, c.Stats.CorruptionsRepaired
	buf := make([]byte, blockdev.BlockSize)
	if _, err := c.ReadBlock(victim.lba, buf); err != nil {
		t.Fatalf("read of silently corrupted slot: %v", err)
	}
	want, ok := model[victim.lba]
	if !ok {
		want = make([]byte, blockdev.BlockSize)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("lying SSD read reached the host: returned bytes differ from last write")
	}
	if c.Stats.CorruptionsDetected == det0 {
		t.Fatal("checksum never detected the flipped SSD content")
	}
	if c.Stats.CorruptionsRepaired == rep0 {
		t.Fatal("detected corruption was not repaired")
	}
	// The flash copy itself must be healed, not just routed around.
	raw := make([]byte, blockdev.BlockSize)
	if _, err := rig.ssd.ReadBlock(slot.index, raw); err != nil {
		t.Fatalf("raw ssd read: %v", err)
	}
	if c.slotTab[slot.index] == slot && contentCRC(raw) != slot.crc {
		t.Fatal("SSD slot content not healed in place")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHomeRotPoisonAndOverwrite drives the unrepairable path: a home
// block rots persistently with no redundant copy. The read must fail
// loudly with ErrCorruption (never return the rotted bytes), the block
// is poisoned against further reads, and a host overwrite — the only
// legitimate cure — clears the poison.
func TestHomeRotPoisonAndOverwrite(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	const lba = 5
	content := genContent(sim.NewRand(9), 3, 0)
	if err := c.Preload(lba, content); err != nil {
		t.Fatalf("preload: %v", err)
	}
	if err := rig.hdd.Corrupt(lba, 123); err != nil {
		t.Fatalf("corrupt hdd: %v", err)
	}

	// The home read verifies at its own layer: the first mismatch is
	// noted against the HDD block, not left to the host-boundary check
	// (which every background consumer of a home read bypasses).
	var noted []string
	c.SetCorruptionHook(func(dev string, _ int64) { noted = append(noted, dev) })
	buf := make([]byte, blockdev.BlockSize)
	_, err := c.ReadBlock(lba, buf)
	if err == nil {
		t.Fatal("read of persistently rotted home block succeeded")
	}
	if len(noted) == 0 || noted[0] != "hdd" {
		t.Fatalf("corruption noted at %v, want hdd first", noted)
	}
	if !errors.Is(err, blockdev.ErrCorruption) {
		t.Fatalf("error does not wrap ErrCorruption: %v", err)
	}
	if cl := blockdev.Classify(err); cl != blockdev.ClassCorruption {
		t.Fatalf("Classify = %v, want ClassCorruption", cl)
	}
	if c.Stats.CorruptionsDetected == 0 || c.Stats.UnrepairableBlocks == 0 {
		t.Fatalf("counters: det=%d unrep=%d", c.Stats.CorruptionsDetected, c.Stats.UnrepairableBlocks)
	}
	if !c.Poisoned(lba) || c.PoisonedBlocks() != 1 {
		t.Fatalf("poison state: Poisoned=%v PoisonedBlocks=%d", c.Poisoned(lba), c.PoisonedBlocks())
	}
	// Poisoned blocks stay loud until overwritten.
	if _, err := c.ReadBlock(lba, buf); !errors.Is(err, blockdev.ErrCorruption) {
		t.Fatalf("second read: %v, want ErrCorruption", err)
	}
	// A fresh host write is the cure.
	fresh := genContent(sim.NewRand(10), 4, 0)
	if _, err := c.WriteBlock(lba, fresh); err != nil {
		t.Fatalf("healing write: %v", err)
	}
	if c.Poisoned(lba) || c.PoisonedBlocks() != 0 {
		t.Fatal("overwrite did not clear poison")
	}
	if _, err := c.ReadBlock(lba, buf); err != nil {
		t.Fatalf("read after overwrite: %v", err)
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatal("read after overwrite returned stale content")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubHealsRottedHomeBackup: cold rot on a reference slot's HDD
// home backup — a block no host read would visit — is found by the
// background scrubber's cross-device check and rewritten from the
// still-good SSD copy.
func TestScrubHealsRottedHomeBackup(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	driveLocalWorkload(t, c, 7, 20000)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	_, slot := findHomeBackedSlot(rig)
	if slot == nil {
		t.Fatal("workload produced no slot with a valid home backup")
	}
	if err := rig.hdd.Corrupt(slot.homeLBA, 999); err != nil {
		t.Fatalf("corrupt hdd: %v", err)
	}
	det0, rep0 := c.Stats.CorruptionsDetected, c.Stats.CorruptionsRepaired
	runScrubPass(t, rig)
	if c.Stats.CorruptionsDetected == det0 {
		t.Fatal("scrubber never detected the rotted home backup")
	}
	if c.Stats.CorruptionsRepaired == rep0 {
		t.Fatal("scrubber detected but did not repair the backup")
	}
	raw := make([]byte, blockdev.BlockSize)
	if _, err := rig.hdd.ReadBlock(slot.homeLBA, raw); err != nil {
		t.Fatalf("raw hdd read: %v", err)
	}
	if c.slotTab[slot.index] == slot && contentCRC(raw) != slot.crc {
		t.Fatal("home backup not healed in place")
	}
	if c.PoisonedBlocks() != 0 {
		t.Fatal("repairable rot must not poison")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubFindsColdRot: rot on a tracked home block that nothing ever
// reads. With no redundant copy the scrubber cannot repair, so it must
// quarantine: the block is poisoned (bounded detection latency instead
// of a wrong read years later), and a host overwrite clears it.
func TestScrubFindsColdRot(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	const lba = 17
	if err := c.Preload(lba, genContent(sim.NewRand(3), 1, 0)); err != nil {
		t.Fatalf("preload: %v", err)
	}
	if err := rig.hdd.Corrupt(lba, 31); err != nil {
		t.Fatalf("corrupt hdd: %v", err)
	}
	runScrubPass(t, rig)
	if c.Stats.CorruptionsDetected == 0 {
		t.Fatal("scrubber never detected cold rot")
	}
	if c.Stats.UnrepairableBlocks == 0 || !c.Poisoned(lba) {
		t.Fatalf("cold rot with no redundancy must poison: unrep=%d poisoned=%v",
			c.Stats.UnrepairableBlocks, c.Poisoned(lba))
	}
	fresh := genContent(sim.NewRand(4), 2, 0)
	if _, err := c.WriteBlock(lba, fresh); err != nil {
		t.Fatalf("healing write: %v", err)
	}
	buf := make([]byte, blockdev.BlockSize)
	if _, err := c.ReadBlock(lba, buf); err != nil {
		t.Fatalf("read after overwrite: %v", err)
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatal("read after overwrite returned stale content")
	}
}

// TestScrubSkipsMidUpdate interleaves scrub passes with an active write
// stream. Blocks mid-update (dirty RAM, unflushed deltas, slot
// attachments) have their authoritative content away from home, so the
// scrubber must skip them rather than flag the stale home copy as rot:
// zero detections, zero poisons, and every read still matches the
// model afterwards.
func TestScrubSkipsMidUpdate(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	c.SetScrub(ScrubConfig{Interval: sim.Millisecond, Batch: 64})
	r := sim.NewRand(99)
	model := make(map[int64][]byte)
	buf := make([]byte, blockdev.BlockSize)
	const lbaSpace = 512
	for round := 0; round < 6; round++ {
		for op := 0; op < 1500; op++ {
			lba := int64(r.Intn(lbaSpace))
			if r.Float64() < 0.5 {
				content := genContent(r, int(lba%5), 0.05)
				if _, err := c.WriteBlock(lba, content); err != nil {
					t.Fatalf("round %d op %d: write: %v", round, op, err)
				}
				model[lba] = content
			} else if _, err := c.ReadBlock(lba, buf); err != nil {
				t.Fatalf("round %d op %d: read: %v", round, op, err)
			}
		}
		runScrubPass(t, rig)
		if round == 2 {
			// A flush mid-test moves deltas to the journal and write-backs
			// home; the scrubber must track the shifting authority.
			if err := c.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
		}
	}
	if c.Stats.CorruptionsDetected != 0 {
		t.Fatalf("scrubber invented %d corruptions on a clean array", c.Stats.CorruptionsDetected)
	}
	if c.PoisonedBlocks() != 0 {
		t.Fatalf("scrubber poisoned %d clean blocks", c.PoisonedBlocks())
	}
	if c.Stats.ScrubHomeChecks == 0 {
		t.Fatal("scrubber never actually checked a home block")
	}
	for lba, want := range model {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("final read lba %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d corrupted under scrub/write interleaving", lba)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayDiscardsCorruptJournalTxn: a journal block silently rotted
// between crash and recovery. The block fails its CRC during the scan,
// its transaction assembles as incomplete, and recovery discards the
// transaction wholly — counted, never partially applied — while every
// record outside it survives intact.
func TestReplayDiscardsCorruptJournalTxn(t *testing.T) {
	cfg := smallConfig()
	rig := newTestRig(t, cfg)
	c := rig.c
	r := sim.NewRand(61)
	durable := make(map[int64][]byte)
	for round := 0; round < 3; round++ {
		for op := 0; op < 600; op++ {
			lba := int64(r.Intn(300))
			content := genContent(r, int(lba%4), 0.04)
			if _, err := c.WriteBlock(lba, content); err != nil {
				t.Fatal(err)
			}
			durable[lba] = content
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Pick a journal block from a multi-block transaction (a torn
	// single-block transaction is simply invisible to the assembler and
	// would not exercise the discard accounting).
	victim := int64(-1)
	var victimTxn *txn
	for b := range c.logBlocks {
		if t := c.logBlocks[b].txn; t != nil && len(t.blocks) >= 2 {
			victim, victimTxn = int64(b), t
			break
		}
	}
	if victim < 0 {
		t.Fatal("workload produced no multi-block journal transaction")
	}
	affected := make(map[int64]bool)
	for _, b := range victimTxn.blocks {
		for _, m := range c.logBlocks[b].metas {
			affected[m.lba] = true
		}
	}
	if err := rig.hdd.Corrupt(cfg.VirtualBlocks+victim, 2048); err != nil {
		t.Fatalf("corrupt journal block: %v", err)
	}

	clock2 := sim.NewClock()
	rc, err := Recover(cfg, rig.ssd, rig.hdd, clock2, cpumodel.NewAccountant())
	if err != nil {
		t.Fatalf("recovery over corrupt journal: %v", err)
	}
	if rc.Stats.TornLogBlocks == 0 {
		t.Fatal("corrupted journal block not counted as torn")
	}
	if rc.Stats.TxnsDiscardedOnReplay == 0 {
		t.Fatal("transaction with a corrupt part was not discarded")
	}
	buf := make([]byte, blockdev.BlockSize)
	for lba, want := range durable {
		if affected[lba] {
			continue // inside the discarded transaction: bounded, accounted loss
		}
		if _, err := rc.ReadBlock(lba, buf); err != nil {
			t.Fatalf("post-recovery read lba %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d outside the discarded txn lost data", lba)
		}
	}
	if err := rc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
