package core

import (
	"icash/internal/blockdev"
	"icash/internal/sim"
)

// This file is the proactive background scrubber (DESIGN.md §14): a
// deterministic, clock-driven station that walks the SSD reference
// slots and the checksum-tracked HDD home blocks, cross-checking each
// copy against the integrity layer's expected CRCs, and drives the
// existing repair machinery (scrubSlot, retirement, quarantine) when a
// copy has silently rotted. Unlike the reactive checks on the request
// path — which only catch corruption when a block happens to be read —
// the scrubber bounds detection latency for cold data.
//
// Determinism: progress is a pair of linear cursors advanced on a
// simulated-clock schedule. No RNG, no map iteration, no wall clock —
// a scrubbed run is byte-identical at any -parallel count and across
// repeats, which the chaos battery checks.

// ScrubConfig configures the background scrubber station.
type ScrubConfig struct {
	// Interval is the simulated time between scrub batches. Zero or
	// negative disables the scrubber entirely (the default): the only
	// cost on the request path is one comparison in periodic().
	Interval sim.Duration
	// Batch is how many blocks each firing verifies (default 8). The
	// pair Interval/Batch is the scrub rate limit: Batch blocks per
	// Interval of simulated time.
	Batch int
}

// SetScrub installs the scrubber schedule. Call before issuing I/O (or
// between phases); changing the interval re-anchors the next firing at
// the next request. A zero-interval config disables the station.
func (c *Controller) SetScrub(cfg ScrubConfig) {
	c.scrub = cfg
	c.scrubArmed = false
}

// Scrubbing reports whether a scrubber schedule is installed: the one
// thing on the request path that reads the clock.
func (c *Controller) Scrubbing() bool { return c.scrub.Interval > 0 }

// ScrubPoll runs any scrub batches whose schedule has come due. The
// request path calls this from periodic(); harness drivers may also
// call it directly between requests.
func (c *Controller) ScrubPoll() { c.scrubPoll() }

func (c *Controller) scrubPoll() {
	if c.scrub.Interval <= 0 {
		return
	}
	now := c.clock.Now()
	if !c.scrubArmed {
		// Lazy arming anchors the schedule at the first polled time, so
		// a scrubber configured before the workload starts does not owe
		// a burst of catch-up batches for the idle prefix.
		c.scrubArmed = true
		c.scrubNext = now.Add(c.scrub.Interval)
		return
	}
	// Catch up at most a few missed firings, then re-anchor: a long
	// request gap charges bounded scrub work, not an unbounded burst.
	for fired := 0; now >= c.scrubNext; fired++ {
		if fired >= 4 {
			c.scrubNext = now.Add(c.scrub.Interval)
			return
		}
		c.scrubBatch()
		c.scrubNext = c.scrubNext.Add(c.scrub.Interval)
	}
}

// scrubBatch verifies one batch of blocks at the cursors.
func (c *Controller) scrubBatch() {
	n := c.scrub.Batch
	if n <= 0 {
		n = 8
	}
	for i := 0; i < n; i++ {
		c.scrubStep()
	}
}

// scrubStep advances the scrub cursor by one block: first across the
// SSD slot range, then across the HDD home range, then wraps (counting
// a completed pass).
func (c *Controller) scrubStep() {
	if c.scrubSlotCursor < c.cfg.SSDBlocks {
		c.scrubOneSlot(c.scrubSlotCursor)
		c.scrubSlotCursor++
		return
	}
	if c.scrubHomeCursor < c.cfg.VirtualBlocks {
		c.scrubOneHome(c.scrubHomeCursor)
		c.scrubHomeCursor++
		return
	}
	c.scrubSlotCursor = 0
	c.scrubHomeCursor = 0
	c.Stats.ScrubPasses++
}

// scrubOneSlot verifies the reference slot at SSD index idx, if one is
// live there. A checksum mismatch routes through the same scrubSlot
// repair/retirement path the request-path detection uses; the slot's
// HDD home backup is cross-checked too, so a rotted backup is healed
// while the SSD copy is still good (and vice versa).
func (c *Controller) scrubOneSlot(idx int64) {
	s := c.slotTab[idx]
	if s == nil || c.ssdSidelined() {
		return
	}
	c.Stats.ScrubSlotChecks++
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	d, err := c.ssdRead(idx, buf)
	detected := false
	if err == nil {
		c.Stats.BackgroundSSDTime += d
		if contentCRC(buf) == s.crc {
			c.scrubSlotBackup(s, buf)
			return
		}
		c.noteCorruption("ssd", idx)
		detected = true
	} else if blockdev.Classify(err) == blockdev.ClassDeviceLost {
		return
	}
	// Damaged content (silently wrong or loudly failed): repair from a
	// redundant copy, salvaging and retiring the slot when none
	// validates — identical handling to a request-path detection.
	_, serr := c.scrubSlot(s)
	if detected {
		if serr == nil {
			c.Stats.CorruptionsRepaired++
		} else {
			c.Stats.UnrepairableBlocks++
		}
	}
}

// scrubSlotBackup cross-checks the slot's HDD home backup against the
// (just verified) SSD copy and heals a rotted backup in place. Only a
// backup that is still supposed to match is checked: the donor's home
// may since have been legitimately overwritten by an eviction, which
// the integrity map distinguishes from rot (the tracked home checksum
// then no longer equals the slot CRC).
func (c *Controller) scrubSlotBackup(s *refSlot, content []byte) {
	// An untracked home reads as sum 0, as good as overwritten.
	if s.homeLBA < 0 || c.lbas[s.homeLBA].poison || c.lbas[s.homeLBA].sum != s.crc {
		return
	}
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	d, err := c.hddRead(s.homeLBA, buf)
	if err != nil {
		return
	}
	c.Stats.BackgroundHDDTime += d
	if contentCRC(buf) == s.crc {
		return
	}
	c.noteCorruption("hdd", s.homeLBA)
	if wd, werr := c.hddWrite(s.homeLBA, content); werr == nil {
		c.Stats.BackgroundHDDTime += wd
		c.Stats.CorruptionsRepaired++
	} else {
		c.Stats.UnrepairableBlocks++
	}
}

// scrubOneHome verifies the HDD home block at lba against the tracked
// content checksum. Only quiescent home-resident copies are checked: a
// block with dirty RAM state, an unflushed delta, or a slot attachment
// has its authoritative content elsewhere, and verifying mid-update
// state would race the write path (the scrub-vs-concurrent-write
// test pins this). Repair sources, in order: the block's clean RAM
// copy, a fresh re-read; failing both, the block is poisoned.
func (c *Controller) scrubOneHome(lba int64) {
	l := &c.lbas[lba]
	want := l.sum
	if !l.sumOK || l.poison {
		return
	}
	v := l.v
	if v != nil && (!v.hddHome || v.dataDirty || v.deltaDirty || v.inDirty || v.slotRef != nil) {
		return
	}
	c.Stats.ScrubHomeChecks++
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	d, err := c.hddRead(lba, buf)
	if err != nil {
		return
	}
	c.Stats.BackgroundHDDTime += d
	if blockdev.ContentCRC(buf) == want {
		return
	}
	c.noteCorruption("hdd", lba)
	// The damaged read is spent: buf takes the RAM copy, if any, and
	// then the re-read.
	if v != nil && v.dataRAM != nil && blockdev.ContentCRC(c.readData(v, buf)) == want {
		if wd, werr := c.hddWrite(lba, buf); werr == nil {
			c.Stats.BackgroundHDDTime += wd
			c.Stats.CorruptionsRepaired++
			return
		}
	}
	d2, err := c.hddRead(lba, buf)
	if err == nil {
		c.Stats.BackgroundHDDTime += d2
		if blockdev.ContentCRC(buf) == want {
			c.Stats.CorruptionsRepaired++
			return
		}
	}
	c.poisonLBA(lba)
}
