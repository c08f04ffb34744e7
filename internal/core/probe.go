package core

import (
	"math/bits"

	"icash/internal/sig"
)

// probeWords is the number of 64-bit words a probe-prefix bitmap spans.
const probeWords = maxSlotProbe / 64

// probeIndex answers the scan's similarity probes over the probe prefix
// (the first maxSlotProbe entries of liveSlots) from bit-sliced
// sub-signature bitmaps, after Faloutsos & Chan's bit-sliced signature
// files (VLDB 1988). lo[p][x] has bit i set when prefix position i's
// sub-signature p has low nibble x, and hi[p][x] likewise for the high
// nibble, so lo[p][b&15] & hi[p][b>>4] marks the positions whose byte p
// equals b. A whole-byte table would be 64 KB; the nibble split is 8 KB.
//
// The prefix changes only where attachSlot lists a slot and where
// detachSlot kills one; both clear fresh, and the next scan probe
// rebuilds the bitmaps from liveSlots.
type probeIndex struct {
	lo, hi [sig.SubBlocks][16][probeWords]uint64
	fresh  bool // the prefix has not changed since the bitmaps were built
}

// build indexes prefix, which is at most maxSlotProbe slots long.
func (x *probeIndex) build(prefix []*refSlot) {
	*x = probeIndex{fresh: true}
	for i, s := range prefix {
		w, bit := i/64, uint64(1)<<(i%64)
		for p, b := range s.sigv {
			x.lo[p][b&15][w] |= bit
			x.hi[p][b>>4][w] |= bit
		}
	}
}

// probePrefixChanged marks the probe index stale.
func (c *Controller) probePrefixChanged() {
	if c.probe != nil {
		c.probe.fresh = false
	}
}

// scanSimilarSlot is findSimilarSlot for the scan, answered from the
// probe index: the prefix slot with the smallest signature distance
// within MaxSigDistance, the lowest position on a tie, or nil. A bit-
// sliced adder counts each position's equal sub-signatures, and only
// the positions with at least SubBlocks-MaxSigDistance of them are
// measured. The index is allocated by the first scan that probes, so a
// controller whose windows stay attached never carries it.
//
// The write path keeps the linear probe: on a workload whose every
// write-through kills a slot, each write would find the index stale and
// pay a rebuild for one probe.
func (c *Controller) scanSimilarSlot(sigv sig.Signature) *refSlot {
	slots := c.liveSlots()
	slots = slots[:min(len(slots), maxSlotProbe)]
	if c.probe == nil {
		c.probe = new(probeIndex)
	}
	x := c.probe
	if !x.fresh {
		x.build(slots)
	}
	need := sig.SubBlocks - c.cfg.MaxSigDistance
	var best *refSlot
	bestDist := c.cfg.MaxSigDistance + 1
	for w := 0; w*64 < len(slots); w++ {
		var eq [sig.SubBlocks]uint64 // positions whose byte p equals sigv[p]
		for p, b := range sigv {
			eq[p] = x.lo[p][b&15][w] & x.hi[p][b>>4][w]
		}
		cand := atLeast(count8(&eq), need)
		if rest := len(slots) - w*64; rest < 64 {
			cand &= 1<<rest - 1
		}
		for ; cand != 0; cand &= cand - 1 {
			s := slots[w*64+bits.TrailingZeros64(cand)]
			if d := sig.Distance(sigv, s.sigv); d < bestDist {
				best, bestDist = s, d
				if d == 0 {
					return best
				}
			}
		}
	}
	return best
}

// count8 adds eight bitmaps position by position with carry-save full
// adders: bit k of each position's sum (0..8) is in the k-th result.
func count8(m *[sig.SubBlocks]uint64) [4]uint64 {
	a1, a2 := fullAdd(m[0], m[1], m[2])
	b1, b2 := fullAdd(m[3], m[4], m[5])
	c1, c2 := fullAdd(m[6], m[7], a1)
	e2, e4 := fullAdd(a2, b2, c2)
	ones, d2 := b1^c1, b1&c1
	twos, f4 := e2^d2, e2&d2
	return [4]uint64{ones, twos, e4 ^ f4, e4 & f4}
}

// fullAdd adds three bitmaps position by position.
func fullAdd(a, b, c uint64) (sum, carry uint64) {
	t := a ^ b
	return t ^ c, a&b | t&c
}

// atLeast returns the positions whose bit-sliced count cnt is at least
// t, comparing from the most significant bit down.
func atLeast(cnt [4]uint64, t int) uint64 {
	if t <= 0 {
		return ^uint64(0)
	}
	var gt uint64
	eq := ^uint64(0)
	for k := len(cnt) - 1; k >= 0; k-- {
		if t>>k&1 != 0 {
			eq &= cnt[k]
		} else {
			gt |= eq & cnt[k]
			eq &^= cnt[k]
		}
	}
	return gt | eq
}
