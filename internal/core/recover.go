package core

import (
	"fmt"
	"slices"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sig"
	"icash/internal/sim"
)

// Recover rebuilds a controller after a crash (paper §3.3): RAM contents
// are gone, but the SSD reference store and the HDD (home region + delta
// log) survive. The journal region is scanned sequentially and its
// commit records are assembled into transactions; a transaction replays
// only when complete — every part present and CRC-valid with the commit
// marker among them — and is discarded in full otherwise, never
// partially applied. Within the surviving records, for every LBA the
// record with the highest sequence number wins:
//
//	delta     → the block is an associate/reference of an SSD slot plus
//	            the logged delta;
//	pointer   → the block's current content sits in an SSD slot;
//	tombstone → the HDD home location is authoritative (nothing to do).
//
// Writes that were only in the RAM commit buffer at crash time are
// lost; that is the bounded reliability window the flush interval
// tunes. A batch whose commit burst the crash interrupted was never
// acknowledged as durable, so discarding it wholly loses nothing.
func Recover(cfg Config, ssdDev, hddDev blockdev.Device, clock *sim.Clock, cpu *cpumodel.Accountant) (*Controller, error) {
	c, err := New(cfg, ssdDev, hddDev, clock, cpu)
	if err != nil {
		return nil, err
	}
	if err := c.replayLog(); err != nil {
		return nil, err
	}
	if err := c.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: post-recovery state inconsistent: %w", err)
	}
	return c, nil
}

// replayLog scans the whole journal region, assembles transactions,
// and reconstructs metadata from the complete ones (all-or-nothing).
func (c *Controller) replayLog() error {
	asm := newJournalAsm()
	buf := make([]byte, blockdev.BlockSize)
	for b := int64(0); b < c.cfg.LogBlocks; b++ {
		d, err := c.hddRead(c.cfg.VirtualBlocks+b, buf)
		if err != nil {
			if blockdev.Classify(err) == blockdev.ClassMedia {
				// Unreadable log block: retire it. Its records were
				// either superseded elsewhere or fall inside the bounded
				// loss window (its transaction assembles as incomplete).
				c.retireLogBlock(b)
				continue
			}
			return fmt.Errorf("core: recovery read log block %d: %w", b, err)
		}
		c.Stats.BackgroundHDDTime += d
		asm.addBlock(b, buf)
	}
	c.Stats.TornLogBlocks += asm.torn

	// Register complete transactions in id order for determinism; an
	// incomplete one is discarded wholly — its blocks stay untracked
	// (and thus reusable), its records invisible.
	ids := make([]uint64, 0, len(asm.txns))
	for id := range asm.txns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	type newest struct {
		e     logEntry
		block int64
	}
	latest := make(map[int64]newest)
	for _, id := range ids {
		onDisk := asm.txns[id]
		if !onDisk.complete() {
			c.Stats.TxnsDiscardedOnReplay++
			continue
		}
		t := c.newTxn(id)
		for part := 0; part < onDisk.total; part++ {
			b := onDisk.seen[uint16(part)]
			c.own(t, b)
			lb := &c.logBlocks[b]
			for _, e := range asm.blocks[b].entries {
				// A record for an LBA the virtual disk does not have is
				// one no host write could ever supersede.
				if !c.validLBA(e.lba) {
					return fmt.Errorf("core: recovery: log references lba %d outside the virtual disk", e.lba)
				}
				lb.metas = append(lb.metas, entryMeta{kind: e.kind, flags: e.flags, lba: e.lba, seq: e.seq, slot: e.slot, size: int32(entrySize(&e))})
				c.lbas[e.lba].durable++
				if cur, ok := latest[e.lba]; !ok || e.seq > cur.e.seq {
					latest[e.lba] = newest{e: e, block: b}
				}
			}
		}
	}
	c.logSeq = asm.maxSeq
	c.nextTxn = asm.maxTxn + 1
	c.logEpoch = asm.maxEpoch + 1

	slotContentCache := make(map[int64][]byte)
	readSlot := func(idx int64) ([]byte, error) {
		if b, ok := slotContentCache[idx]; ok {
			return b, nil
		}
		b := make([]byte, blockdev.BlockSize)
		d, err := c.ssdRead(idx, b)
		if err != nil {
			return nil, err
		}
		c.Stats.BackgroundSSDTime += d
		slotContentCache[idx] = b
		return b, nil
	}
	getSlot := func(idx int64) (*refSlot, error) {
		if idx < 0 || idx >= c.cfg.SSDBlocks {
			return nil, fmt.Errorf("core: recovery: log references slot %d outside SSD", idx)
		}
		if s := c.slotTab[idx]; s != nil {
			return s, nil
		}
		s := &refSlot{index: idx, donor: -1, homeLBA: -1}
		content, err := readSlot(idx)
		if err != nil {
			return nil, err
		}
		s.sigv = sig.Compute(content)
		s.crc = contentCRC(content)
		c.setSlot(s)
		return s, nil
	}
	// dropRecord abandons a slot-bound record whose SSD content cannot
	// be read back: the stale home copy is what survives for that LBA. A
	// tombstone is queued so the next flush makes the fallback durable;
	// whole-SSD loss additionally flips the array into degraded mode.
	dropRecord := func(lba int64, err error) error {
		switch blockdev.Classify(err) {
		case blockdev.ClassDeviceLost:
			if !c.ssdLost {
				c.ssdLost = true
				c.Stats.DegradeEvents++
			}
		case blockdev.ClassMedia:
		default:
			return err
		}
		c.Stats.DroppedLogRecs++
		c.dropSum(lba) // content regresses to the stale home copy
		c.queueControl(logEntry{kind: entryTombstone, lba: lba})
		return nil
	}

	// Apply the newest records in LBA order for determinism.
	for i := range c.lbas {
		if c.lbas[i].durable == 0 {
			continue
		}
		lba := int64(i)
		n := latest[lba]
		e := n.e
		c.setLogIndex(lba, logRec{block: n.block, seq: e.seq, kind: e.kind, size: int32(entrySize(&e))})
		switch e.kind {
		case entryTombstone:
			// Home location is authoritative; no metadata needed.
		case entryPointer:
			s, err := getSlot(e.slot)
			if err != nil {
				if err := dropRecord(lba, err); err != nil {
					return err
				}
				continue
			}
			if e.flags&flagReference == 0 && s.wt != nil {
				// A write-through takes its slot as sole occupant; no
				// controller writes two of them into one.
				return fmt.Errorf("core: recovery: log writes lba %d and lba %d through to slot %d", s.wt.lba, lba, e.slot)
			}
			v := &vblock{lba: lba, ssdCurrent: true, sigv: s.sigv}
			c.attachSlot(v, s)
			if e.flags&flagDonor != 0 {
				s.donor = lba
			}
			if e.flags&flagReference != 0 {
				c.setKind(v, Reference)
			} else {
				c.setKind(v, Independent)
			}
			c.track(v)
		case entryDelta:
			s, err := getSlot(e.slot)
			if err != nil {
				if err := dropRecord(lba, err); err != nil {
					return err
				}
				continue
			}
			v := &vblock{lba: lba, sigv: s.sigv}
			c.attachSlot(v, s)
			if e.flags&flagDonor != 0 {
				s.donor = lba
				c.setKind(v, Reference)
			} else {
				c.setKind(v, Associate)
			}
			// Best effort RAM install; the log copy remains the durable
			// source either way.
			c.storeDeltaBestEffort(v, e.delta, false)
			c.track(v)
		}
	}

	// The commit frontier resumes on an overwritable block after the
	// newest write. Block reuse is transaction-granular (logBlockFree),
	// so this needs the live counts the apply loop just rebuilt.
	if asm.maxSeq > 0 {
		start := (asm.maxSeqBlock + 1) % c.cfg.LogBlocks
		c.logHead = start
		for i := int64(0); i < c.cfg.LogBlocks; i++ {
			b := (start + i) % c.cfg.LogBlocks
			if !c.logBlockFree(b) {
				continue
			}
			c.logHead = b
			break
		}
	}

	// SSD slots not referenced by any live record are free.
	c.freeSlots = c.freeSlots[:0]
	for i := c.cfg.SSDBlocks - 1; i >= 0; i-- {
		if c.slotTab[i] == nil {
			c.freeSlots = append(c.freeSlots, i)
		}
	}
	return nil
}
