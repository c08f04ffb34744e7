package blockdev

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The patch codec keeps a block as its difference from a basis block
// (Basis): an 8-byte little-endian mask of the PatchChunk-byte chunks
// that differ from the basis, those chunks in order, and one zero byte.
// Store keeps data-set blocks this way, and so does the I-CASH
// controller's RAM data cache; both refuse a patch that would reach
// PatchLimit bytes and keep the block whole instead.
const (
	// PatchChunk is the patch granularity: one mask bit per chunk.
	PatchChunk = 64
	// PatchLimit is the size a patch must stay under to be kept.
	PatchLimit = BlockSize / 4
	// patchOverhead is a patch's mask and closing zero byte.
	patchOverhead = 8 + 1
)

// PatchLen returns the length of the patch whose mask is mask.
func PatchLen(mask uint64) int {
	return patchOverhead + bits.OnesCount64(mask)*PatchChunk
}

// diffSpanLen is how much of a block diffSpan compares in one call: a
// quarter, so DiffMask can refuse content far from its basis after the
// first quarter (at PatchLimit, 16 differing chunks are too many).
const diffSpanLen = BlockSize / 4

// DiffMask marks the chunks of b that differ from base. It refuses
// (ok false) once the patch would reach limit bytes, checked after each
// quarter block, so random content costs a quarter of a compare.
func DiffMask(b, base []byte, limit int) (mask uint64, ok bool) {
	size := patchOverhead
	if size >= limit {
		return 0, false
	}
	x, y := (*[BlockSize]byte)(b), (*[BlockSize]byte)(base)
	for off := 0; off < BlockSize; off += diffSpanLen {
		m := diffSpan((*[diffSpanLen]byte)(x[off:]), (*[diffSpanLen]byte)(y[off:]))
		if size += bits.OnesCount64(m) * PatchChunk; size >= limit {
			return 0, false
		}
		mask |= m << (off / PatchChunk)
	}
	return mask, true
}

// diffSpanGo is diffSpan a word at a time, for CPUs without a vector
// compare: at 64 bytes, the call overhead of bytes.Equal outweighs its
// own vector compare.
func diffSpanGo(b, base *[diffSpanLen]byte) uint64 {
	le := binary.LittleEndian
	var mask uint64
	for c := range diffSpanLen / PatchChunk {
		p, q := (*[PatchChunk]byte)(b[c*PatchChunk:]), (*[PatchChunk]byte)(base[c*PatchChunk:])
		if (le.Uint64(p[0:])^le.Uint64(q[0:]))|(le.Uint64(p[8:])^le.Uint64(q[8:]))|
			(le.Uint64(p[16:])^le.Uint64(q[16:]))|(le.Uint64(p[24:])^le.Uint64(q[24:]))|
			(le.Uint64(p[32:])^le.Uint64(q[32:]))|(le.Uint64(p[40:])^le.Uint64(q[40:]))|
			(le.Uint64(p[48:])^le.Uint64(q[48:]))|(le.Uint64(p[56:])^le.Uint64(q[56:])) != 0 {
			mask |= 1 << c
		}
	}
	return mask
}

// AppendPatch appends the patch of b's chunks named by mask to e,
// growing e at most once (not at all when its capacity holds
// PatchLen(mask) more bytes).
func AppendPatch(e, b []byte, mask uint64) []byte {
	e = slices.Grow(e, PatchLen(mask))
	e = binary.LittleEndian.AppendUint64(e, mask)
	for m := mask; m != 0; m &= m - 1 {
		off := bits.TrailingZeros64(m) * PatchChunk
		e = append(e, b[off:off+PatchChunk]...)
	}
	return append(e, 0)
}

// ApplyPatch writes base with patch p applied into buf.
func ApplyPatch(buf, base, p []byte) {
	copy(buf, base)
	mask := binary.LittleEndian.Uint64(p)
	p = p[8:]
	for m := mask; m != 0; m &= m - 1 {
		off := bits.TrailingZeros64(m) * PatchChunk
		p = p[copy(buf[off:off+PatchChunk], p):]
	}
}

// ValidPatch reports whether p is a well-formed patch: a mask, exactly
// the chunks it names, and the closing zero byte.
func ValidPatch(p []byte) bool {
	return len(p) >= patchOverhead && len(p) == PatchLen(binary.LittleEndian.Uint64(p)) && p[len(p)-1] == 0
}
