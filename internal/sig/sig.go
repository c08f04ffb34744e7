// Package sig implements I-CASH's content sub-signatures and the Heatmap
// popularity structure (paper §4.2, Figures 4–5, Tables 1–2).
//
// Each 4 KB block is divided into 8 sub-blocks of 512 bytes. Each
// sub-block gets a 1-byte sub-signature: the sum (mod 256) of the four
// bytes at offsets 0, 16, 32 and 64 within the sub-block. The signature
// deliberately samples rather than hashes: the goal is detecting
// *similar* blocks, and a cryptographic hash would make any single-byte
// change look like a completely different block, destroying the very
// similarity signal I-CASH needs.
//
// The Heatmap is an S×Vs table of popularity counters (8×256 here). Every
// block access increments the counter for each of its 8 sub-signatures.
// A block's popularity — the sum of its sub-signature counters — captures
// both temporal locality (the same block accessed twice bumps its own
// counters) and content locality (two similar blocks bump each other's
// shared counters). The most popular blocks become reference blocks.
package sig

import (
	"encoding/binary"
	"math/bits"

	"icash/internal/blockdev"
)

const (
	// SubBlocks is the number of sub-blocks per 4 KB block (S in the
	// paper).
	SubBlocks = 8
	// SubBlockSize is the size of one sub-block.
	SubBlockSize = blockdev.BlockSize / SubBlocks
	// Values is the number of possible sub-signature values (Vs).
	Values = 256
)

// sampleOffsets are the byte offsets within a sub-block summed into its
// sub-signature (paper §4.2: offsets 0, 16, 32 and 64).
var sampleOffsets = [4]int{0, 16, 32, 64}

// Signature is the 8-byte content signature of one block.
type Signature [SubBlocks]byte

// Compute derives the signature of a 4 KB block. It panics on a wrongly
// sized buffer; callers operate on fixed-size cache blocks.
func Compute(block []byte) Signature {
	if len(block) != blockdev.BlockSize {
		panic("sig: block must be exactly one cache block")
	}
	var s Signature
	for i := 0; i < SubBlocks; i++ {
		base := i * SubBlockSize
		var sum byte
		for _, off := range sampleOffsets {
			sum += block[base+off]
		}
		s[i] = sum
	}
	return s
}

// Heatmap is the S×Vs popularity table.
type Heatmap struct {
	pop [SubBlocks][Values]uint64
}

// NewHeatmap returns a zeroed heatmap.
func NewHeatmap() *Heatmap { return &Heatmap{} }

// Record increments the popularity of each sub-signature of s. Called on
// every block read and write (paper §4.2).
func (h *Heatmap) Record(s Signature) {
	for i, v := range s {
		h.pop[i][v]++
	}
}

// Popularity returns the block popularity of signature s: the sum of its
// sub-signature counters (paper Table 2).
func (h *Heatmap) Popularity(s Signature) uint64 {
	var sum uint64
	for i, v := range s {
		sum += h.pop[i][v]
	}
	return sum
}

// Value returns one counter (row = sub-block index, col = signature
// value); exposed for tests and the inspection tool.
func (h *Heatmap) Value(row int, col byte) uint64 { return h.pop[row][col] }

// Decay halves every counter. Long-running systems call this
// periodically so that stale popularity does not pin yesterday's hot
// content as references forever.
func (h *Heatmap) Decay() {
	for i := range h.pop {
		for j := range h.pop[i] {
			h.pop[i][j] >>= 1
		}
	}
}

// Reset zeroes the heatmap.
func (h *Heatmap) Reset() {
	*h = Heatmap{}
}

// Distance returns the number of differing sub-signatures between a and
// b, in [0, SubBlocks]. Similarity detection treats small distances as
// likely-similar content worth delta-encoding.
//
// A signature is one 64-bit word, so the count is the number of nonzero
// byte lanes of a XOR b: adding 0x7f to a lane's low seven bits carries
// into its top bit exactly when one of them is set (and never out of
// the lane), and OR-ing x back in covers a lane whose only set bit is
// the top one.
func Distance(a, b Signature) int {
	const low7 = 0x7f7f7f7f7f7f7f7f
	x := binary.LittleEndian.Uint64(a[:]) ^ binary.LittleEndian.Uint64(b[:])
	return bits.OnesCount64(((x&low7 + low7) | x) &^ low7)
}
