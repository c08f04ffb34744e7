package core

import "icash/internal/blockdev"

// Scratch arena. Hot paths that need a transient 4 KB buffer — slot
// content reads, home reads inside materialize, delta decode output —
// draw from here instead of allocating. The arena owns every buffer it
// hands out: callers never Put, they let the slice go out of scope.
//
// This shape exists because materialize and slotContent hand their
// buffer up through several frames (a slot read becomes a decode's
// base, a decode becomes a cache fill or a home write), so no one frame
// knows when it dies and per-call Put would be unsound. Instead buffers
// go back to the blockdev pool in sweeps, each where every slice derived
// from them is dead: a host request entry and Flush's exit release the
// whole arena, and each item of a background loop inside a request (an
// eviction in writeBackHome, a write-through backup, a scan or
// first-load pairing candidate, a salvaged dependent) releases what it
// borrowed once its content is copied to a device or to RAM. So a
// request holds at most its own materialize and one background item
// (TestScratchBounded). See DESIGN.md §11.

// getScratch returns a BlockSize buffer with arbitrary contents, valid
// until the release that covers it.
func (c *Controller) getScratch() []byte {
	b := blockdev.GetBlock()
	c.scratch = append(c.scratch, b)
	c.scratchPeak = max(c.scratchPeak, len(c.scratch))
	return b
}

// scratchMark names the buffers handed out so far; releaseScratch(mark)
// returns every one handed out after it.
func (c *Controller) scratchMark() int { return len(c.scratch) }

// releaseScratch returns every scratch buffer handed out since mark to
// the pool. The caller guarantees that no slice of one is still live.
func (c *Controller) releaseScratch(mark int) {
	for i := mark; i < len(c.scratch); i++ {
		if c.poisonScratch {
			for j := range c.scratch[i] {
				c.scratch[i][j] = blockdev.Poison
			}
		}
		blockdev.PutBlock(c.scratch[i])
		c.scratch[i] = nil
	}
	c.scratch = c.scratch[:mark]
}

// scratchOr returns dst, or a scratch buffer when dst is nil.
func (c *Controller) scratchOr(dst []byte) []byte {
	if dst == nil {
		return c.getScratch()
	}
	return dst
}
