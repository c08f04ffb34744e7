package core

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/ram"
	"icash/internal/sim"
)

// SSD slot management. A slot is one SSD block of immutable content that
// attached virtual blocks decode against. Slots are freed only when no
// block is attached, and freed slots sit in quarantine until the next
// log flush commits the records that detached their dependents — only
// then is reusing the slot crash-safe.

// allocSlot reserves a free SSD slot. Returns nil when none are free —
// callers decide whether reclaiming (installReference) or falling back
// to RAM (write-through) is appropriate; forced eviction churn on the
// write path would turn every incompressible write into HDD traffic.
func (c *Controller) allocSlot() *refSlot {
	if len(c.freeSlots) == 0 {
		return nil
	}
	idx := c.freeSlots[len(c.freeSlots)-1]
	c.freeSlots = c.freeSlots[:len(c.freeSlots)-1]
	s := &refSlot{index: idx, donor: -1, homeLBA: -1}
	c.setSlot(s)
	return s
}

// setSlot enters s in the slot table as the live slot at its index.
func (c *Controller) setSlot(s *refSlot) {
	c.slotTab[s.index] = s
	c.nLiveSlots++
}

// clearSlot takes s out of the slot table if it is the live slot there.
func (c *Controller) clearSlot(s *refSlot) {
	if c.slotTab[s.index] == s {
		c.slotTab[s.index] = nil
		c.nLiveSlots--
	}
}

// liveSlots returns the deterministic slot list: every slot with a
// block attached, once, in the order attachSlot listed them. A slot is
// listed from its first attach, so an entry is dead exactly when its
// refcnt is zero, and the list needs compacting only after detachSlot
// took a listed slot there.
func (c *Controller) liveSlots() []*refSlot {
	if !c.slotsStale {
		return c.slotOrder
	}
	out := c.slotOrder[:0]
	for _, s := range c.slotOrder {
		if s.refcnt > 0 {
			out = append(out, s)
		} else {
			s.listed = false
		}
	}
	clear(c.slotOrder[len(out):]) // dead slots are garbage from here on
	c.slotOrder = out
	c.slotsStale = false
	return out
}

// attachSlot binds v to s, resurrecting s if it was quarantined in the
// meantime. A caller may hold s across a delta store or data install
// whose RAM-pressure cascade evicts the slot's last dependent: the
// refcount hits zero and the index is queued for reuse while the
// caller still intends to attach. Attaching again is sound — the flash
// content is untouched until the index is reallocated, which cannot
// happen inside the cascade — but the index must come back out of the
// quarantine or free list, or a later flush would hand it out while
// blocks are still attached. A resurrected slot that no compaction has
// dropped from slotOrder yet keeps the entry it has; listing it again
// would have every probe visit it twice.
//
// The caller sets v's kind next (setKind), which is what files v in the
// write-through sublist.
func (c *Controller) attachSlot(v *vblock, s *refSlot) {
	if v.slotRef != nil {
		c.detachSlot(v)
	}
	if s.refcnt <= 0 && c.slotTab[s.index] != s {
		if prev := c.slotTab[s.index]; prev != nil {
			panic(fmt.Sprintf("core: slot %d resurrected after reallocation (now %p)", s.index, prev))
		}
		c.setSlot(s)
		c.quarantine = removeIndex(c.quarantine, s.index)
		c.freeSlots = removeIndex(c.freeSlots, s.index)
	}
	if !s.listed {
		s.listed = true
		c.slotOrder = append(c.slotOrder, s)
		// The new entry is in the probe prefix if the list, all live
		// unless slotsStale (whose death already marked the index
		// stale), was shorter than the prefix.
		if len(c.slotOrder) <= maxSlotProbe {
			c.probePrefixChanged()
		}
	}
	v.slotRef = s
	s.refcnt++
	if v.stamp != 0 {
		c.lru.unattached--
	}
}

// setKind reclassifies v. It is the one place a linked block's kind
// changes, because the write-through sublist's membership hangs on it.
func (c *Controller) setKind(v *vblock, k Kind) {
	v.kind = k
	c.lru.wtSync(v)
}

// removeIndex deletes the first occurrence of idx, preserving order.
func removeIndex(list []int64, idx int64) []int64 {
	for i, x := range list {
		if x == idx {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// detachSlot unbinds v from its slot, quarantining the slot when the
// last dependent leaves. Callers are responsible for queueing the log
// record (tombstone / pointer / new delta) that supersedes v's durable
// state before the next flush.
func (c *Controller) detachSlot(v *vblock) {
	dbg(v.lba, "detachSlot kind=%v ssdCur=%v", v.kind, v.ssdCurrent)
	s := v.slotRef
	v.slotRef = nil
	v.ssdCurrent = false
	if s == nil {
		return
	}
	if s.wt == v {
		c.lru.wtUnlink(s)
	}
	if v.stamp != 0 {
		c.lru.unattached++
	}
	s.refcnt--
	if s.refcnt <= 0 {
		c.clearSlot(s)
		c.quarantine = append(c.quarantine, s.index)
		c.slotsStale = true
		c.probePrefixChanged()
	}
}

// writeThroughVictim returns the coldest write-through block
// (Independent and attached to a slot) other than the one being served,
// or nil: the tail of the write-through sublist.
func (c *Controller) writeThroughVictim() *vblock {
	s := c.lru.wtail
	if s != nil && s.wt == c.pinned {
		s = s.wprev
	}
	if s == nil {
		return nil
	}
	return s.wt
}

// donorOnlyVictim returns the coldest reference block nothing else is
// attached to, other than the one being served, or nil.
func (c *Controller) donorOnlyVictim() *vblock {
	for v := c.lru.tail; v != nil; v = v.prev {
		if v != c.pinned && v.kind == Reference && v.slotRef != nil && v.slotRef.refcnt == 1 {
			return v
		}
	}
	return nil
}

// reclaimWriteThrough evicts the coldest write-through (independent,
// SSD-resident) block to its home location, freeing its slot for a new
// write-through. Reference slots are never touched here — breaking
// associations on the write path would be far more expensive than the
// RAM fallback.
func (c *Controller) reclaimWriteThrough() error {
	v := c.writeThroughVictim()
	if v == nil {
		return nil
	}
	if err := c.evictToHome(v); err != nil {
		return err
	}
	if len(c.quarantine) > 0 && len(c.freeSlots) == 0 {
		return c.commitJournal()
	}
	return nil
}

// canReclaimSlot reports whether reclaimSlot would find a victim.
func (c *Controller) canReclaimSlot() bool {
	return c.writeThroughVictim() != nil || c.donorOnlyVictim() != nil
}

// reclaimSlot tries to free one SSD slot by evicting the coldest
// write-through independent or, when there is none, the coldest
// donor-only reference. Shared reference slots are never broken up here
// (the scan reorganizes those).
func (c *Controller) reclaimSlot() {
	victim := c.writeThroughVictim()
	if victim == nil {
		victim = c.donorOnlyVictim()
	}
	if victim == nil {
		return
	}
	// Make the victim durable at home and drop its slot dependence.
	if err := c.evictToHome(victim); err != nil {
		return
	}
}

// promoteDonor reclassifies a write-through block as a Reference once
// other blocks attach to its slot: its content is now "being referred"
// (paper §4.3), so it must not be recycled as a plain write-through.
func (c *Controller) promoteDonor(s *refSlot) {
	if s.donor < 0 || s.refcnt < 2 {
		return
	}
	donor := c.lbas[s.donor].v
	if donor == nil || donor.slotRef != s {
		return
	}
	if donor.kind == Independent && donor.ssdCurrent {
		c.setKind(donor, Reference)
	}
}

// slotContent returns the immutable content of slot s and the
// synchronous latency of obtaining it. The donor's cached data doubles
// as the slot content while the donor is pristine; otherwise the SSD is
// read. When background is true the device time is charged to
// background stats and the returned latency is zero.
//
// This is also where fail-slow defenses live (paper §3.3's redundancy,
// exploited for latency instead of durability):
//
//   - a quarantined SSD is bypassed outright: the slot's CRC-verified
//     HDD home backup serves the read and the sick device sees no
//     traffic at all;
//   - a foreground SSD read whose device service time blows the hedge
//     deadline races a hedge read against the home backup, and the
//     request completes at min(ssd, deadline + hdd) — the slow read is
//     cancelled, not waited out.
func (c *Controller) slotContent(s *refSlot, background bool) ([]byte, sim.Duration, error) {
	if s.donor >= 0 {
		if donor := c.lbas[s.donor].v; donor != nil && donor.slotRef == s && donor.ssdCurrent && donor.dataRAM != nil {
			if contentCRC(donor.dataRAM) == s.crc {
				return donor.dataRAM, ram.AccessLatency, nil
			}
			// The cached donor copy disagrees with the install-time slot
			// checksum: the RAM copy rotted. Fall through to the devices,
			// which hold verified redundant copies.
			c.noteCorruption("ram", s.index)
		}
	}
	if c.ssdQuarantined {
		// Every canaryInterval-th quarantined read falls through to the
		// SSD as a canary probe: the detector only re-admits a station
		// after a run of clean samples, and a fully bypassed device
		// would never produce any. The hedge below bounds the probe's
		// latency, so a still-sick device costs one deadline, not one
		// full slowdown.
		c.quarantineReads++
		if c.quarantineReads%canaryInterval != 0 {
			if alt, altD, ok := c.hedgeBackup(s); ok {
				c.Stats.QuarantineSkips++
				if background {
					c.Stats.BackgroundHDDTime += altD
					altD = 0
				}
				return alt, altD, nil
			}
		}
	}
	buf := c.getScratch()
	d, err := c.ssdRead(s.index, buf)
	detected := false
	if err == nil && contentCRC(buf) != s.crc {
		// The SSD reported success but returned wrong bytes (silent
		// corruption). Synthesize a corruption-classed error so the lie
		// routes through exactly the same repair path as a loud media
		// error — a lying read must never reach the host.
		c.noteCorruption("ssd", s.index)
		detected = true
		err = fmt.Errorf("%w: slot %d: %w", errSSDOp, s.index, blockdev.ErrCorruption)
	}
	if err != nil {
		if cl := blockdev.Classify(err); cl == blockdev.ClassMedia || cl == blockdev.ClassCorruption {
			// Damaged reference content — an uncorrectable bit error or a
			// checksum-caught silent flip: scrub the slot from a redundant
			// copy (donor RAM or the CRC-verified HDD home backup) and
			// heal the flash block in place.
			content, serr := c.scrubSlot(s)
			if detected {
				if serr == nil {
					c.Stats.CorruptionsRepaired++
				} else {
					c.Stats.UnrepairableBlocks++
				}
			}
			if serr != nil {
				return nil, 0, fmt.Errorf("core: slot %d read: %w", s.index, serr)
			}
			buf = content
		} else {
			return nil, 0, fmt.Errorf("core: slot %d read: %w", s.index, err)
		}
	}
	if background {
		c.Stats.BackgroundSSDTime += d
		return buf, 0, nil
	}
	// Hedged read: the deadline check keys on the last single attempt's
	// device time (not the retry-loop total), so only a genuinely slow
	// device — not a transient-retry detour — triggers the hedge.
	if dl := c.cfg.HedgeDeadline; dl > 0 && err == nil && c.lastAttemptDur > dl {
		c.Stats.DeadlineExceeded++
		if alt, altD, ok := c.hedgeBackup(s); ok {
			c.Stats.HedgedReads++
			if hedged := dl + altD; hedged < d {
				// The hedge won: the SSD read is cancelled at the deadline
				// and the backup's bytes serve the request.
				c.Stats.HedgeWins++
				c.Stats.HedgeSavedTime += d - hedged
				return alt, hedged, nil
			}
			// The SSD completed first after all; the hedge is discarded
			// and its wasted HDD time becomes background work.
			c.Stats.HedgeCancels++
			c.Stats.BackgroundHDDTime += altD
		}
	}
	return buf, d, nil
}

// writeThroughSSD handles an oversized delta (paper §5.3): the new
// content is written directly to a fresh SSD slot, releasing
// delta-buffer space. A slot is never reprogrammed in place, because a
// durable delta may still decode against v's old slot. v leaves that
// slot only once the new one is allocated (the allocation may commit,
// and a commit hands quarantined slots back), so the old slot stays
// quarantined until the commit that carries v's new pointer. The write
// is synchronous (it is the request's data path), so its latency is
// returned. Falls back to a dirty RAM block when no slot can be
// allocated.
func (c *Controller) writeThroughSSD(v *vblock, content []byte) (sim.Duration, error) {
	s := c.allocSlot()
	if s == nil && len(c.quarantine) > 0 {
		// Freed slots are waiting on a flush to commit their
		// tombstones; commit now (cheap sequential log writes) and
		// retry.
		if err := c.commitJournal(); err != nil {
			return 0, err
		}
		s = c.allocSlot()
	}
	if s == nil {
		// Recycle the coldest previous write-through block; its
		// content moves to its home location in the background.
		if err := c.reclaimWriteThrough(); err != nil {
			return 0, err
		}
		s = c.allocSlot()
	}
	if v.slotRef != nil {
		c.detachSlot(v)
	}
	if s == nil {
		// SSD fully pinned by shared references: keep the block dirty
		// in RAM instead; eviction will write it home. A tombstone
		// supersedes any durable delta/pointer record left behind.
		c.releaseDelta(v)
		c.setKind(v, Independent)
		v.hddHome = false
		if k := c.lbas[v.lba].rec.kind; k != entryNone && k != entryTombstone {
			c.queueControl(logEntry{kind: entryTombstone, lba: v.lba})
		}
		if err := c.cacheData(v, content, true); err != nil {
			return 0, err
		}
		c.Stats.WriteIndependent++
		c.Stats.WriteRAMFallback++
		return ram.AccessLatency, nil
	}
	d, err := c.ssdWrite(s.index, content)
	if err != nil {
		if blockdev.Classify(err) == blockdev.ClassDeviceLost {
			return 0, fmt.Errorf("core: write-through slot %d: %w", s.index, err)
		}
		// Program failure: unwind so the metadata never points at a slot
		// whose content didn't land, then keep the write in RAM (same
		// fallback as a fully pinned SSD). A media-class failure retires
		// the flash block; anything else quarantines it for reuse.
		c.discardSlot(s, blockdev.Classify(err) == blockdev.ClassMedia)
		c.releaseDelta(v)
		c.setKind(v, Independent)
		v.hddHome = false
		if c.lbas[v.lba].rec.kind != entryTombstone {
			c.queueControl(logEntry{kind: entryTombstone, lba: v.lba})
		}
		if err := c.cacheData(v, content, true); err != nil {
			return 0, err
		}
		c.Stats.WriteIndependent++
		c.Stats.WriteRAMFallback++
		return ram.AccessLatency, nil
	}
	s.sigv = v.sigv
	c.attachSlot(v, s)
	s.donor = v.lba
	s.crc = contentCRC(content)
	s.homeLBA = -1 // write-throughs have no home backup (home is stale)
	c.releaseDelta(v)
	c.setKind(v, Independent)
	v.ssdCurrent = true
	v.hddHome = false
	if err := c.cacheData(v, content, false); err != nil {
		return 0, err
	}
	dbg(v.lba, "writeThroughSSD pointer slot=%d", s.index)
	c.queueControl(logEntry{kind: entryPointer, flags: flagDonor, lba: v.lba, slot: s.index})
	c.Stats.WriteThroughSSD++
	return d, nil
}

// installReference writes content into a fresh SSD slot and makes v its
// donor ("reference block"). Called by the similarity scan; the SSD
// write is background reorganization work, not request latency.
// References never take the last reserveSlots slots — those stay
// available for threshold write-throughs (§5.3), so incompressible
// writes always have room.
func (c *Controller) installReference(v *vblock, content []byte) (*refSlot, error) {
	reserve := c.reserveSlots()
	if len(c.freeSlots) <= reserve {
		c.reclaimSlot()
	}
	if len(c.freeSlots) <= reserve {
		return nil, nil
	}
	s := c.allocSlot()
	if s == nil {
		return nil, nil
	}
	d, err := c.ssdWrite(s.index, content)
	if err != nil {
		// Unwind the unattached slot so invariants hold; the candidate
		// simply stays unpromoted. A dead SSD aborts the whole scan.
		c.discardSlot(s, blockdev.Classify(err) == blockdev.ClassMedia)
		if blockdev.Classify(err) == blockdev.ClassDeviceLost {
			return nil, fmt.Errorf("core: install reference slot %d: %w", s.index, err)
		}
		return nil, nil
	}
	c.Stats.BackgroundSSDTime += d
	// Back up the reference content at the donor's home location: slot
	// scrubbing re-fetches it from there if the flash copy degrades. The
	// CRC detects a backup later overwritten by an eviction.
	s.crc = contentCRC(content)
	if err := c.writeHome(v, content); err == nil {
		s.homeLBA = v.lba
	}
	if v.slotRef != nil {
		c.detachSlot(v)
	}
	s.sigv = v.sigv
	c.attachSlot(v, s)
	s.donor = v.lba
	c.setKind(v, Reference)
	v.ssdCurrent = true
	v.dataDirty = false // the SSD slot is now a durable current copy
	c.releaseDelta(v)
	v.deltaDirty = false
	dbg(v.lba, "installReference pointer slot=%d", s.index)
	c.queueControl(logEntry{kind: entryPointer, flags: flagDonor | flagReference, lba: v.lba, slot: s.index})
	c.Stats.RefsSelected++
	return s, nil
}

// FreeSlotCount reports currently allocatable SSD slots (excluding
// quarantined ones awaiting a flush).
func (c *Controller) FreeSlotCount() int { return len(c.freeSlots) }

// LiveSlotCount reports SSD slots holding live reference or
// write-through content.
func (c *Controller) LiveSlotCount() int { return c.nLiveSlots }

// reserveSlots is how many SSD slots reference installation leaves
// alone: an eighth of the SSD, at least 4.
func (c *Controller) reserveSlots() int {
	return int(max(c.cfg.SSDBlocks/8, 4))
}
