package core

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// This file is the controller's end-to-end integrity layer (DESIGN.md
// §14): a per-LBA content checksum (lbaEntry.sum) maintained on the
// host write path and verified at every layer crossing — SSD reference
// fetch (slots.go), HDD home read (below), delta apply (iopath.go),
// journal load (log.go) — so a device that lies and returns success
// with wrong bytes is caught before the bytes are served or re-encoded.
// Detected corruption is repaired from whichever redundant copy
// verifies; when none does, the block is poisoned (reads fail loudly) or
// its content regresses to an accounted stale copy — never silently
// wrong.

// SetCorruptionHook registers fn to observe every checksum-mismatch
// detection: dev names the lying device ("ssd", "hdd", "ram", "host")
// and devLBA is the device-local block address. The chaos harness uses
// the hook to measure detection latency against recorded injection
// times. nil clears the hook.
func (c *Controller) SetCorruptionHook(fn func(dev string, devLBA int64)) {
	c.corruptionHook = fn
}

// noteCorruption records one checksum-mismatch detection.
func (c *Controller) noteCorruption(dev string, devLBA int64) {
	c.Stats.CorruptionsDetected++
	if c.corruptionHook != nil {
		c.corruptionHook(dev, devLBA)
	}
}

// trackSum records lba's current content checksum after a successful
// host write and clears any poison: the block holds
// known-good content again.
func (c *Controller) trackSum(lba int64, content []byte) {
	l := &c.lbas[lba]
	l.sum, l.sumOK = blockdev.ContentCRC(content), true
	if l.poison {
		l.poison = false
		c.nPoisoned--
	}
}

// poisonLBA marks lba unrepairable: every copy failed verification.
func (c *Controller) poisonLBA(lba int64) {
	if l := &c.lbas[lba]; !l.poison {
		l.poison = true
		c.nPoisoned++
	}
	c.Stats.UnrepairableBlocks++
}

// dropSum stops tracking lba. Called when the block's durable content
// becomes indeterminate (a failed host write) or intentionally
// regresses to a stale copy (the accounted-loss fallbacks): the old
// checksum would flag the fallback content as corrupt forever.
func (c *Controller) dropSum(lba int64) { c.lbas[lba].sum, c.lbas[lba].sumOK = 0, false }

// Poisoned reports whether lba is poisoned: every copy of its content
// failed verification and reads fail with ErrCorruption until the
// block is fully overwritten.
func (c *Controller) Poisoned(lba int64) bool { return c.validLBA(lba) && c.lbas[lba].poison }

// PoisonedBlocks reports how many LBAs are currently poisoned.
func (c *Controller) PoisonedBlocks() int { return c.nPoisoned }

// errPoisoned builds the loud read error for a poisoned block.
func errPoisoned(lba int64) error {
	return fmt.Errorf("core: lba %d poisoned by unrepairable corruption (awaiting overwrite): %w",
		lba, blockdev.ErrCorruption)
}

// readHomeVerified reads lba's HDD home block into buf and verifies it
// against the tracked content checksum. On a mismatch the repair
// ladder is: one re-read (a transfer-path upset leaves the media
// intact, so a fresh copy may verify), else poison — a home-resident
// block has no other copy, and a loud error beats silently serving
// wrong bytes. Untracked LBAs (never written through the controller)
// pass unverified. The returned duration covers every device access;
// the caller charges it foreground or background as usual.
func (c *Controller) readHomeVerified(lba int64, buf []byte) (sim.Duration, error) {
	l := &c.lbas[lba]
	if l.poison {
		return 0, errPoisoned(lba)
	}
	d, err := c.hddRead(lba, buf)
	if err != nil {
		return d, fmt.Errorf("core: home read lba %d: %w", lba, err)
	}
	want := l.sum
	if !l.sumOK || blockdev.ContentCRC(buf) == want {
		return d, nil
	}
	c.noteCorruption("hdd", lba)
	d2, err := c.hddRead(lba, buf)
	d += d2
	if err == nil && blockdev.ContentCRC(buf) == want {
		c.Stats.CorruptionsRepaired++
		return d, nil
	}
	c.poisonLBA(lba)
	return d, fmt.Errorf("core: home read lba %d: %w", lba, blockdev.ErrCorruption)
}

// dropCorruptDelta abandons a block's delta after the journal copy was
// found corrupt or vanished under a misdirected write: without the
// delta the slot base alone is not the block's current content, so the
// stale home copy is what remains — the in-run analogue of recovery's
// dropRecord, accounted the same way (DroppedLogRecs). The tracked
// checksum is dropped with the content regression. Returns a
// corruption-classed error; the caller's faultRecovered retry then
// serves the home copy.
func (c *Controller) dropCorruptDelta(v *vblock, cause error) error {
	c.salvageHome(v, nil, &c.Stats.DroppedLogRecs)
	return fmt.Errorf("core: lba %d: delta record corrupt, falling back to stale home copy: %w",
		v.lba, cause)
}
