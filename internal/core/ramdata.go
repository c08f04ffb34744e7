package core

import (
	"icash/internal/blockdev"
	"icash/internal/race"
)

// RAM data blocks. v.dataRAM keeps v's current content in one of two
// forms, told apart by length:
//
//   - raw: a pooled BlockSize buffer holding the block;
//   - patched: a blockdev patch against the basis block of v's LBA,
//     when the data set has one and the patch stays under
//     blockdev.PatchLimit. A patch is always shorter than a block.
//
// The data budget charges BlockSize per resident block in either form:
// the modelled controller RAM holds whole blocks, and only the
// simulator's own memory shrinks. Every reader decodes through
// readData into a buffer it owns, so no slice of dataRAM leaves this
// file.
//
// Patch buffers are recycled. A buffer is allocated at the length of
// the patch that needed it (its class: the number of chunks it holds),
// keeps later patches of its block that fit, and on release waits on
// its class's free list in patchFree. A new patch takes the smallest
// free buffer that holds it and allocates only when none does, so once
// the resident patches' sizes have settled the cache allocates nothing.
// Race builds poison what they release, as blockdev.PutBlock does.

// patchStreak and patchBackoff bound the diffs spent on content far
// from its basis. Once patchStreak fills in a row have kept no patch,
// putData diffs only every patchBackoff-th fill until one keeps a patch
// again: a workload whose blocks never sit near their basis (fresh or
// heavily mutated content) then pays for one diff in patchBackoff
// fills. A futile diff still reads a quarter to a half of a basis block
// before it refuses, and with thousands of families that basis is cold:
// on the repo benchmark's mail workload (4,096 families, no block ever
// near its basis) dropping the backoff cost 6-8 % CPU per operation.
// The streak is long enough that a workload of near blocks with some
// fresh ones (oltp) never reaches it; at 16 it did, and kept 2 % more
// heap.
const (
	patchStreak  = 64
	patchBackoff = 16
)

// patchClasses is the number of patch lengths a kept patch can have:
// the mask and closing byte plus 0 to patchClasses-1 chunks stay under
// blockdev.PatchLimit, and a patch buffer's capacity divided by the
// chunk size is its class.
const patchClasses = blockdev.PatchLimit / blockdev.PatchChunk

// SetBasis installs the basis RAM data blocks are patched against (nil
// for none): the data set's shared reference content, addressed by the
// controller's LBAs. Installing the basis already installed does
// nothing; installing another one re-keeps every resident block
// against it, content unchanged. Nothing simulated depends on the
// basis.
func (c *Controller) SetBasis(b blockdev.Basis) {
	if b == c.basis {
		return
	}
	old := c.basis
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	for v := c.lru.dhead; v != nil; v = v.dnext {
		c.basis = old
		c.readData(v, buf)
		c.basis = b
		c.putData(v, buf)
	}
	c.basis = b
}

// DataForms counts the resident RAM data blocks and how many of them
// are kept as patches.
func (c *Controller) DataForms() (resident, patched int) {
	for v := c.lru.dhead; v != nil; v = v.dnext {
		resident++
		if len(v.dataRAM) < blockdev.BlockSize {
			patched++
		}
	}
	return resident, patched
}

// basisOf returns the basis block of lba, nil when there is none.
func (c *Controller) basisOf(lba int64) []byte {
	if c.basis == nil {
		return nil
	}
	return c.basis.Basis(lba)
}

// readData decodes v's RAM data block into dst and returns dst.
func (c *Controller) readData(v *vblock, dst []byte) []byte {
	if len(v.dataRAM) == blockdev.BlockSize {
		copy(dst, v.dataRAM)
	} else {
		blockdev.ApplyPatch(dst, c.basisOf(v.lba), v.dataRAM)
	}
	return dst
}

// ramContent decodes v's RAM data block into a scratch buffer, nil when
// v has none.
func (c *Controller) ramContent(v *vblock) []byte {
	if v.dataRAM == nil {
		return nil
	}
	return c.readData(v, c.getScratch())
}

// putData keeps content as v's RAM data block, patched when that fits
// (and patchBackoff lets it try), raw otherwise. It reuses v's buffer
// when that holds the new form; the budget is the caller's.
func (c *Controller) putData(v *vblock, content []byte) {
	e := v.dataRAM
	if base := c.basisOf(v.lba); base != nil {
		if c.patchMisses < patchStreak || c.patchMisses%patchBackoff == 0 {
			if mask, ok := blockdev.DiffMask(content, base, blockdev.PatchLimit); ok {
				if n := blockdev.PatchLen(mask); cap(e) < n || len(e) == blockdev.BlockSize {
					c.freeData(e)
					e = c.getPatch(n)
				}
				v.dataRAM = blockdev.AppendPatch(e[:0], content, mask)
				c.patchMisses = 0
				return
			}
		}
		c.patchMisses++
	}
	if len(e) != blockdev.BlockSize {
		c.freeData(e)
		e = blockdev.GetBlock()
	}
	copy(e, content)
	v.dataRAM = e
}

// getPatch returns an empty buffer with capacity for an n-byte patch:
// the smallest free one that holds it, else a new one of exactly n.
func (c *Controller) getPatch(n int) []byte {
	for class := n / blockdev.PatchChunk; class < patchClasses; class++ {
		free := &c.patchFree[class]
		if k := len(*free); k > 0 {
			e := (*free)[k-1]
			(*free)[k-1] = nil
			*free = (*free)[:k-1]
			return e
		}
	}
	return make([]byte, 0, n)
}

// freeData releases a RAM data block's buffer: a raw block to the
// blockdev pool, a patch to its length's free list.
func (c *Controller) freeData(e []byte) {
	switch {
	case e == nil:
	case len(e) == blockdev.BlockSize:
		blockdev.PutBlock(e)
	default:
		e = e[:cap(e)]
		if race.Enabled {
			for i := range e {
				e[i] = blockdev.Poison
			}
		}
		free := &c.patchFree[cap(e)/blockdev.PatchChunk]
		*free = append(*free, e[:0])
	}
}
