package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

func TestLogBlockCodec(t *testing.T) {
	entries := []logEntry{
		{kind: entryDelta, flags: flagDonor, lba: 42, seq: 7, slot: 3, delta: []byte{1, 2, 3}},
		{kind: entryPointer, flags: flagDonor | flagReference, lba: 100, seq: 8, slot: 9},
		{kind: entryTombstone, lba: 7, seq: 9, slot: -1},
	}
	hdr := blockHeader{txn: 11, epoch: 3, part: 1, total: 2, flags: blockFlagCommit}
	buf := make([]byte, blockdev.BlockSize)
	encodeLogBlock(buf, hdr, entries)
	ghdr, got, err := decodeLogBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if ghdr != hdr {
		t.Fatalf("header mismatch: %+v vs %+v", ghdr, hdr)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		e, g := entries[i], got[i]
		if e.kind != g.kind || e.flags != g.flags || e.lba != g.lba || e.seq != g.seq || e.slot != g.slot {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, e, g)
		}
		if !bytes.Equal(e.delta, g.delta) {
			t.Fatalf("entry %d delta mismatch", i)
		}
	}
}

func TestLogBlockCodecEmpty(t *testing.T) {
	// A never-written (zero) block decodes to no entries, no error.
	buf := make([]byte, blockdev.BlockSize)
	hdr, got, err := decodeLogBlock(buf)
	if err != nil || len(got) != 0 || hdr.total != 0 {
		t.Fatalf("zero block: %d entries, hdr %+v, %v", len(got), hdr, err)
	}
}

// recrc recomputes the block checksum in place, so a corruption test
// exercises the structural validation behind the CRC, not the CRC.
func recrc(buf []byte) {
	binary.LittleEndian.PutUint32(buf[6:10], logBlockCRC(buf))
}

func TestLogBlockCodecCorrupt(t *testing.T) {
	hdr := blockHeader{txn: 1, epoch: 1, part: 0, total: 1, flags: blockFlagCommit}
	one := []logEntry{{kind: entryDelta, lba: 1, seq: 1, delta: []byte{9}}}
	buf := make([]byte, blockdev.BlockSize)

	// A flipped bit fails the checksum.
	encodeLogBlock(buf, hdr, one)
	buf[logHeaderSize] ^= 0xFF
	if _, _, err := decodeLogBlock(buf); err == nil {
		t.Fatal("bit flip must fail the checksum")
	}
	// Corrupt record kind behind a valid CRC.
	encodeLogBlock(buf, hdr, one)
	buf[logHeaderSize] = 77
	recrc(buf)
	if _, _, err := decodeLogBlock(buf); err == nil {
		t.Fatal("corrupt record kind must error")
	}
	// Overstated count behind a valid CRC.
	encodeLogBlock(buf, hdr, one)
	buf[4] = 0xFF
	buf[5] = 0x7F
	recrc(buf)
	if _, _, err := decodeLogBlock(buf); err == nil {
		t.Fatal("overstated record count must error")
	}
	// Journal framing: part out of range, zero part count, commit
	// marker anywhere but the last part — all torn-write signatures.
	encodeLogBlock(buf, blockHeader{txn: 1, epoch: 1, part: 2, total: 2, flags: blockFlagCommit}, one)
	if _, _, err := decodeLogBlock(buf); err == nil {
		t.Fatal("part >= total must error")
	}
	encodeLogBlock(buf, blockHeader{txn: 1, epoch: 1, part: 0, total: 0}, one)
	if _, _, err := decodeLogBlock(buf); err == nil {
		t.Fatal("zero part count must error")
	}
	encodeLogBlock(buf, blockHeader{txn: 1, epoch: 1, part: 0, total: 2, flags: blockFlagCommit}, one)
	if _, _, err := decodeLogBlock(buf); err == nil {
		t.Fatal("commit marker on a non-final part must error")
	}
	encodeLogBlock(buf, blockHeader{txn: 1, epoch: 1, part: 0, total: 2}, one)
	if _, _, err := decodeLogBlock(buf); err != nil {
		t.Fatalf("valid non-final part must decode: %v", err)
	}
}

// TestLogCleanerRescue forces the circular log to wrap and verifies that
// still-live deltas are rescued rather than lost.
func TestLogCleanerRescue(t *testing.T) {
	cfg := smallConfig()
	cfg.LogBlocks = 12 // tiny log: wraps quickly
	cfg.FlushPeriodOps = 16
	rig := newTestRig(t, cfg)
	c := rig.c
	r := sim.NewRand(21)
	model := map[int64][]byte{}
	buf := make([]byte, blockdev.BlockSize)

	for op := 0; op < 6000; op++ {
		lba := int64(r.Intn(200))
		content := genContent(r, int(lba%3), 0.03)
		if _, err := c.WriteBlock(lba, content); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		model[lba] = content
	}
	if c.Stats.LogBlocksWritten < cfg.LogBlocks {
		t.Skipf("log never wrapped (%d blocks written)", c.Stats.LogBlocksWritten)
	}
	for lba, want := range model {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d corrupted after log wrap", lba)
		}
	}
}

// TestShedLogPressure verifies the live-volume governor: with a log too
// small for the working set, the controller sheds cold deltas to home
// locations instead of failing.
func TestShedLogPressure(t *testing.T) {
	cfg := smallConfig()
	cfg.LogBlocks = 8
	cfg.FlushPeriodOps = 8
	rig := newTestRig(t, cfg)
	c := rig.c
	r := sim.NewRand(23)
	model := map[int64][]byte{}
	buf := make([]byte, blockdev.BlockSize)
	for op := 0; op < 4000; op++ {
		lba := int64(r.Intn(600))
		content := genContent(r, int(lba%3), 0.03)
		if _, err := c.WriteBlock(lba, content); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		model[lba] = content
	}
	if c.Stats.WritebacksHome == 0 {
		t.Error("expected home write-backs under log pressure")
	}
	for lba, want := range model {
		c.ReadBlock(lba, buf)
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d corrupted under log pressure", lba)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryIdempotent: recovering twice yields the same state.
func TestRecoveryIdempotent(t *testing.T) {
	cfg := smallConfig()
	rig := newTestRig(t, cfg)
	c := rig.c
	r := sim.NewRand(31)
	for op := 0; op < 2000; op++ {
		lba := int64(r.Intn(300))
		if _, err := c.WriteBlock(lba, genContent(r, int(lba%4), 0.04)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock()
	r1, err := Recover(cfg, rig.ssd, rig.hdd, clock, cpumodel.NewAccountant(clock))
	if err != nil {
		t.Fatal(err)
	}
	clock2 := sim.NewClock()
	r2, err := Recover(cfg, rig.ssd, rig.hdd, clock2, cpumodel.NewAccountant(clock2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.lru.len() != r2.lru.len() || r1.logSeq != r2.logSeq || r1.logHead != r2.logHead {
		t.Fatalf("recovery not idempotent: %d/%d blocks, seq %d/%d, head %d/%d",
			r1.lru.len(), r2.lru.len(), r1.logSeq, r2.logSeq, r1.logHead, r2.logHead)
	}
	for lba := range r1.lbas {
		if a, b := r1.lbas[lba].rec, r2.lbas[lba].rec; a != b {
			t.Fatalf("recovery not idempotent: lba %d newest record %+v, then %+v", lba, a, b)
		}
	}
}

// TestCrashAtRandomPoints: property-style — write, flush at a random
// point, keep writing, crash; every pre-flush write must survive.
func TestCrashAtRandomPoints(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := smallConfig()
		clock := sim.NewClock()
		cpu := cpumodel.NewAccountant(clock)
		ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
		hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
		c, err := New(cfg, ssd, hdd, clock, cpu)
		if err != nil {
			return false
		}
		r := sim.NewRand(seed)
		durable := map[int64][]byte{}
		pending := map[int64][]byte{}
		nOps := 300 + r.Intn(1200)
		flushAt := r.Intn(nOps)
		for op := 0; op < nOps; op++ {
			lba := int64(r.Intn(250))
			content := genContent(r, int(lba%5), 0.05)
			if _, err := c.WriteBlock(lba, content); err != nil {
				return false
			}
			pending[lba] = content
			if op == flushAt {
				if err := c.Flush(); err != nil {
					return false
				}
				for k, v := range pending {
					durable[k] = v
				}
				pending = map[int64][]byte{}
			}
		}
		clock2 := sim.NewClock()
		rc, err := Recover(cfg, ssd, hdd, clock2, cpumodel.NewAccountant(clock2))
		if err != nil {
			return false
		}
		buf := make([]byte, blockdev.BlockSize)
		for lba, want := range durable {
			if _, overwritten := pending[lba]; overwritten {
				continue // post-flush write may or may not have survived
			}
			if _, err := rc.ReadBlock(lba, buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineBlocksSlotReuse: a freed slot must not be reused before
// the flush that commits its dependents' tombstones. That includes the
// slot an attached block leaves when it writes through: a durable delta
// may still decode against it, so the new content always lands in
// another slot, even when finding one took a commit.
func TestQuarantineBlocksSlotReuse(t *testing.T) {
	cfg := smallConfig()
	cfg.SSDBlocks = 8 // tiny SSD: slot churn guaranteed
	cfg.FlushPeriodOps = 1 << 30
	cfg.FlushDirtyBytes = 1 << 30 // flushing only when forced
	rig := newTestRig(t, cfg)
	c := rig.c
	r := sim.NewRand(41)
	buf := make([]byte, blockdev.BlockSize)
	model := map[int64][]byte{}
	moved := 0
	for op := 0; op < 3000; op++ {
		lba := int64(r.Intn(100))
		content := genContent(r, op%50, 0.4) // diverse content: write-through pressure
		prev, old, throughs := c.lbas[lba].v, int64(-1), c.Stats.WriteThroughSSD
		if prev != nil && prev.slotRef != nil {
			old = prev.slotRef.index
		}
		if _, err := c.WriteBlock(lba, content); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if v := c.lbas[lba].v; old >= 0 && v == prev && c.Stats.WriteThroughSSD > throughs {
			moved++
			if v.slotRef.index == old {
				t.Fatalf("op %d: lba %d wrote through over its own slot %d", op, lba, old)
			}
		}
		model[lba] = content
	}
	if moved == 0 {
		t.Fatal("no attached block wrote through")
	}
	for lba, want := range model {
		c.ReadBlock(lba, buf)
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d corrupted under slot churn", lba)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
