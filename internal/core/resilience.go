package core

import (
	"errors"
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/delta"
	"icash/internal/sim"
)

// This file is the controller's fault-handling layer: typed error
// classification with bounded retry and simulated-clock backoff, slot
// scrubbing (repair of damaged SSD reference content from a redundant
// copy), and graceful degradation to HDD-only passthrough when the SSD
// is lost entirely. The paper's reliability argument (§3.3) says
// I-CASH survives crashes because the SSD reference store and the HDD
// log are durable; this layer is what keeps that argument honest when
// the media themselves misbehave.

// errSSDOp tags errors that originated on the SSD side of the array so
// the top-level request handlers can tell SSD loss from HDD loss.
var errSSDOp = errors.New("core: ssd operation failed")

// retryBackoff is the simulated-clock delay charged before the first
// retry of a transient error; it doubles on each further attempt.
const retryBackoff = 500 * sim.Microsecond

// withRetry runs op, retrying transient device errors up to
// cfg.MaxRetries times with doubling simulated backoff, bounded by the
// per-operation deadline: once the accumulated time (attempts plus the
// next backoff) would cross cfg.OpDeadline, the loop gives up instead
// of backing off again — a fail-slow device must not pin a request
// indefinitely. The returned duration includes every attempt plus the
// backoff waits; the returned error is the last attempt's error (nil
// on success). The final attempt's own service time is also kept in
// c.lastAttemptDur for the hedging decision.
func (c *Controller) withRetry(op func() (sim.Duration, error)) (sim.Duration, error) {
	var total sim.Duration
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		d, err := op()
		total += d
		c.lastAttemptDur = d
		if err == nil {
			return total, nil
		}
		if blockdev.Classify(err) != blockdev.ClassTransient || attempt >= c.cfg.MaxRetries {
			return total, err
		}
		if c.cfg.OpDeadline > 0 && total+backoff > c.cfg.OpDeadline {
			c.Stats.DeadlineGiveUps++
			return total, err
		}
		c.Stats.TransientRetries++
		c.Stats.RetryBackoffTime += backoff
		total += backoff
		backoff *= 2
	}
}

// ssdRead reads one SSD block with retry. A lost SSD fails fast.
func (c *Controller) ssdRead(lba int64, buf []byte) (sim.Duration, error) {
	if c.ssdLost {
		return 0, fmt.Errorf("%w: read lba %d: %w", errSSDOp, lba, blockdev.ErrDeviceLost)
	}
	d, err := c.withRetry(func() (sim.Duration, error) { return c.ssd.ReadBlock(lba, buf) })
	if err != nil {
		c.Stats.SSDReadFaults++
		err = fmt.Errorf("%w: read lba %d: %w", errSSDOp, lba, err)
	}
	return d, err
}

// ssdWrite writes one SSD block with retry.
func (c *Controller) ssdWrite(lba int64, buf []byte) (sim.Duration, error) {
	if c.ssdLost {
		return 0, fmt.Errorf("%w: write lba %d: %w", errSSDOp, lba, blockdev.ErrDeviceLost)
	}
	d, err := c.withRetry(func() (sim.Duration, error) { return c.ssd.WriteBlock(lba, buf) })
	if err != nil {
		c.Stats.SSDWriteFaults++
		err = fmt.Errorf("%w: write lba %d: %w", errSSDOp, lba, err)
	}
	return d, err
}

// hddRead reads one HDD block with retry.
func (c *Controller) hddRead(lba int64, buf []byte) (sim.Duration, error) {
	d, err := c.withRetry(func() (sim.Duration, error) { return c.hdd.ReadBlock(lba, buf) })
	if err != nil {
		c.Stats.HDDReadFaults++
	}
	return d, err
}

// hddWrite writes one HDD block with retry.
func (c *Controller) hddWrite(lba int64, buf []byte) (sim.Duration, error) {
	d, err := c.withRetry(func() (sim.Duration, error) { return c.hdd.WriteBlock(lba, buf) })
	if err != nil {
		c.Stats.HDDWriteFaults++
	}
	return d, err
}

// contentCRC is the end-to-end integrity checksum kept per reference
// slot and per LBA, used to validate a repair source before trusting
// it (the similarity signature is a sketch, not collision resistant)
// and to catch silently corrupted reads at every layer crossing. RAM
// only — never serialized — so it delegates to the shared CRC32-C.
func contentCRC(b []byte) uint32 { return blockdev.ContentCRC(b) }

// discardSlot unwinds a freshly allocated slot whose content write
// failed before any block attached. retire permanently removes the SSD
// block from circulation (program failure); otherwise the slot is
// quarantined until the next flush, like any freed slot.
func (c *Controller) discardSlot(s *refSlot, retire bool) {
	c.clearSlot(s)
	if retire {
		c.retiredSlots = append(c.retiredSlots, s.index)
		c.Stats.SlotsRetired++
	} else {
		c.quarantine = append(c.quarantine, s.index)
	}
}

// retireQuarantined moves a slot index that detachSlot just placed in
// quarantine onto the permanent retired list instead, keeping a dying
// flash block out of the allocation rotation.
func (c *Controller) retireQuarantined(idx int64) {
	for i, q := range c.quarantine {
		if q == idx {
			c.quarantine = append(c.quarantine[:i], c.quarantine[i+1:]...)
			c.retiredSlots = append(c.retiredSlots, idx)
			c.Stats.SlotsRetired++
			return
		}
	}
}

// scrubSlot repairs a reference slot whose SSD content came back with
// an uncorrectable media error. Repair sources, in order:
//
//  1. the donor's pristine RAM copy (a donor with no self-delta holds
//     exactly the slot content);
//  2. the slot's HDD home backup — installReference writes the
//     reference content to the donor's home location precisely so this
//     path exists — validated against the slot's CRC before use (a
//     later home rewrite invalidates the backup; the CRC detects it).
//
// On success the content is rewritten to the SSD, healing the bad
// block, and returned. When no source validates (or the heal write
// also fails), every dependent is salvaged and the slot is retired.
func (c *Controller) scrubSlot(s *refSlot) ([]byte, error) {
	c.Stats.SlotScrubs++
	var content []byte
	if s.donor >= 0 {
		if donor := c.lbas[s.donor].v; donor != nil && donor.slotRef == s && donor.ssdCurrent && donor.dataRAM != nil {
			content = append([]byte(nil), donor.dataRAM...)
		}
	}
	if content == nil && s.homeLBA >= 0 {
		buf := make([]byte, blockdev.BlockSize)
		if d, err := c.hddRead(s.homeLBA, buf); err == nil {
			c.Stats.BackgroundHDDTime += d
			if contentCRC(buf) == s.crc {
				content = buf
			}
		}
	}
	if content == nil {
		c.salvageSlot(s, true)
		return nil, fmt.Errorf("core: slot %d: media error and no valid repair source: %w",
			s.index, blockdev.ErrMedia)
	}
	// Rewriting heals the bad block (sector remap / page reprogram). If
	// even the rewrite fails the flash block is dying: salvage the
	// dependents (their content is reconstructible — we hold it) and
	// retire the block.
	d, err := c.ssdWrite(s.index, content)
	if err != nil {
		if blockdev.Classify(err) == blockdev.ClassDeviceLost {
			return nil, err
		}
		c.salvageContent(s, content)
		return nil, fmt.Errorf("core: slot %d: repair rewrite failed: %w", s.index, err)
	}
	c.Stats.BackgroundSSDTime += d
	c.Stats.SlotScrubRepairs++
	return content, nil
}

// salvageHome is the one salvage step: v leaves its slot and lives on
// as an independent at its home location. content is v's current bytes,
// nil when they could not be produced without the slot; it is written
// home, and when there is none (or the write fails) the stale home copy
// is what remains and *lost counts the block.
func (c *Controller) salvageHome(v *vblock, content []byte, lost *int64) {
	if content == nil || c.writeHome(v, content) != nil {
		*lost++
		c.dropSum(v.lba) // content regresses to the stale copy
		v.hddHome = true // stale home copy is all that remains
		v.dataDirty = false
	}
	c.orphanFromSlot(v)
}

// salvageSlot handles an unrepairable slot: every dependent either has
// its current content in RAM or has lost data — its newest content
// needed the dead slot (counted as ScrubDataLoss). The slot itself is
// retired when retire is set.
func (c *Controller) salvageSlot(s *refSlot, retire bool) {
	idx := s.index
	for _, v := range c.slotDependents(s) {
		c.salvageHome(v, v.dataRAM, &c.Stats.ScrubDataLoss)
	}
	if retire {
		c.retireQuarantined(idx)
	}
}

// salvageContent detaches every dependent of s after its content was
// recovered but could not be rewritten to flash: each dependent's
// current content is reconstructed from the recovered base and written
// home, so nothing is lost. The slot is retired.
func (c *Controller) salvageContent(s *refSlot, base []byte) {
	idx := s.index
	for _, v := range c.slotDependents(s) {
		content := v.dataRAM
		if content == nil && v.ssdCurrent {
			content = base
		}
		if content == nil {
			if enc := c.residentDelta(v); enc != nil {
				if dec, err := delta.Decode(base, enc); err == nil {
					content = dec
				}
			}
		}
		c.salvageHome(v, content, &c.Stats.ScrubDataLoss)
	}
	c.retireQuarantined(idx)
}

// residentDelta returns v's delta bytes from RAM or, failing that, from
// its durable log record. nil when neither source is available.
func (c *Controller) residentDelta(v *vblock) []byte {
	if v.deltaRAM != nil {
		return v.deltaRAM
	}
	if c.deltaLogged(v) {
		if enc, err := c.deltaFromLog(v.lba); err == nil {
			return enc
		}
	}
	return nil
}

// orphanFromSlot detaches v from its slot and turns it into a plain
// independent whose home location is authoritative, queueing the
// tombstone that supersedes any durable or pending slot-bound record.
func (c *Controller) orphanFromSlot(v *vblock) {
	c.releaseDelta(v)
	c.detachSlot(v)
	c.setKind(v, Independent)
	if c.lbas[v.lba].rec.kind != entryTombstone {
		c.queueControl(logEntry{kind: entryTombstone, lba: v.lba})
	}
}

// slotDependents snapshots the blocks attached to s (detaching mutates
// the LRU during iteration otherwise).
func (c *Controller) slotDependents(s *refSlot) []*vblock {
	var deps []*vblock
	for v := c.lru.head; v != nil; v = v.next {
		if v.slotRef == s {
			deps = append(deps, v)
		}
	}
	return deps
}

// maybeDegradeSSD inspects a request-path error and, on whole-SSD
// loss, switches the controller into HDD-only degraded mode. Reports
// whether degradation happened — the caller should then retry its
// operation once, because every block is slot-free afterwards. Errors
// from the HDD side never trigger this.
func (c *Controller) maybeDegradeSSD(err error) bool {
	if err == nil || c.ssdLost {
		return false
	}
	if !errors.Is(err, errSSDOp) || blockdev.Classify(err) != blockdev.ClassDeviceLost {
		return false
	}
	c.degradeSSD()
	return true
}

// faultRecovered reports whether the fault behind a request-path error
// has been repaired to the point that one retry can succeed: either the
// SSD was just degraded away (every block is slot-free now), or a
// media-level or corruption-level scrub failure salvaged v to its home
// location (v is slot-free). Corruption is never retried in place —
// the lying copy was detached, and the retry reads the surviving one.
// Transient faults were already retried below; anything else stays
// fatal.
func (c *Controller) faultRecovered(v *vblock, err error) bool {
	if c.maybeDegradeSSD(err) {
		return true
	}
	cl := blockdev.Classify(err)
	return (cl == blockdev.ClassMedia || cl == blockdev.ClassCorruption) &&
		v.slotRef == nil && !v.dead
}

// degradeSSD transitions to HDD-only passthrough after whole-SSD loss:
// every slot-attached block is salvaged from controller RAM where
// possible (content written to its HDD home) and detached; blocks
// whose newest content existed only as SSD reference + delta are
// counted as DegradedDataLoss and fall back to their stale home copy.
// Afterwards reads and writes bypass the SSD entirely: the similarity
// scan, first-load pairing and write-through paths are disabled.
func (c *Controller) degradeSSD() {
	if c.ssdLost {
		return
	}
	c.ssdLost = true
	c.ssdQuarantined = false // loss supersedes soft quarantine
	c.Stats.DegradeEvents++
	var attached []*vblock
	for v := c.lru.head; v != nil; v = v.next {
		if v.slotRef != nil {
			attached = append(attached, v)
		}
	}
	for _, v := range attached {
		c.salvageHome(v, v.dataRAM, &c.Stats.DegradedDataLoss)
	}
	// Commit the tombstones: after this flush the HDD alone describes
	// every surviving block, so a later crash recovers cleanly without
	// the SSD. On flush failure they stay queued for the next attempt.
	if err := c.commitJournal(); err != nil {
		dbg(-2, "degrade flush failed: %v", err)
	}
}

// hedgeBackup tries to serve slot content from the slot's CRC-verified
// HDD home backup instead of the (slow) SSD. Returns the content, the
// HDD service time, and whether the backup validated. installReference
// writes the backup precisely so this alternative exists; the CRC
// detects a backup later overwritten by an eviction. Write-through
// slots (homeLBA < 0) have no backup and cannot hedge.
func (c *Controller) hedgeBackup(s *refSlot) ([]byte, sim.Duration, bool) {
	if s.homeLBA < 0 {
		return nil, 0, false
	}
	buf := c.getScratch()
	d, err := c.hddRead(s.homeLBA, buf)
	if err != nil || contentCRC(buf) != s.crc {
		if err == nil {
			// The probe cost real HDD time but served nothing; charge it
			// as background work (a cancelled hedge in flight).
			c.Stats.BackgroundHDDTime += d
		}
		return nil, 0, false
	}
	return buf, d, true
}

// SetSSDQuarantined flips the soft quarantine of a fail-slow SSD. Under
// quarantine, foreground slot reads bypass the SSD via the home backup,
// and the write path stops feeding it (no similarity detection, no
// write-through, no reference installs) — the same code points HDD-only
// degraded mode gates, but reversible: nothing is salvaged or detached,
// so clearing the flag re-admits the device with its state intact. The
// slow-device detector drives this; operators and tests may too.
func (c *Controller) SetSSDQuarantined(q bool) {
	if q == c.ssdQuarantined || c.ssdLost {
		return
	}
	c.ssdQuarantined = q
	if q {
		c.Stats.QuarantineEvents++
		c.quarantineReads = 0 // canary cadence restarts per episode
	} else {
		c.Stats.ReadmitEvents++
	}
}

// canaryInterval: one quarantined slot read in every canaryInterval
// probes the SSD instead of the backup. Frequent enough that the
// detector's eighth-window clear threshold is reachable on canary
// traffic spread across the SSD channels, rare enough that a sick
// device stays mostly idle.
const canaryInterval = 3

// SSDQuarantined reports whether the SSD is currently quarantined.
func (c *Controller) SSDQuarantined() bool { return c.ssdQuarantined }

// ssdSidelined reports whether the SSD should be avoided on new work:
// lost for good, or quarantined as fail-slow.
func (c *Controller) ssdSidelined() bool { return c.ssdLost || c.ssdQuarantined }

// Degraded reports whether the controller is running in HDD-only
// passthrough mode after SSD loss.
func (c *Controller) Degraded() bool { return c.ssdLost }

// DegradeSSD forces HDD-only degraded mode, as if the SSD had just
// failed. Exposed for operational tooling and tests.
func (c *Controller) DegradeSSD() { c.degradeSSD() }
