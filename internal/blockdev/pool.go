package blockdev

import (
	"sync"

	"icash/internal/race"
)

// blockPool recycles BlockSize-byte buffers across the hot I/O paths
// (core.iopath, the log encoder, the harness page cache). Storing
// *[BlockSize]byte rather than []byte keeps Get/Put free of interface
// boxing allocations.
//
// Ownership rules (DESIGN.md §11): a pooled buffer's prior contents are
// arbitrary — every acquirer must fully overwrite it before reading
// (all Device implementations fill the whole block on ReadBlock, and
// the log encoder zero-fills, so this holds by construction). A buffer
// may be handed off exactly once (stored into a struct field or
// returned); whoever holds it last calls PutBlock exactly once, or
// simply drops it — leaking to the GC is safe, double-Put is not.
var blockPool = sync.Pool{
	New: func() any { return new([BlockSize]byte) },
}

// GetBlock returns a BlockSize-byte buffer with arbitrary contents,
// drawn from the pool when one is available.
func GetBlock() []byte {
	return blockPool.Get().(*[BlockSize]byte)[:]
}

// PutBlock returns a buffer obtained from GetBlock to the pool. Buffers
// of any other shape are dropped silently, so callers that sometimes
// hold device-owned or short slices need not special-case them — but
// the caller must not retain any reference to b afterwards. Race builds
// poison the released bytes with Poison, so a read after release sees
// garbage in every `go test -race` run, not only where a GetBlock
// happens to intervene.
func PutBlock(b []byte) {
	if len(b) != BlockSize || cap(b) != BlockSize {
		return
	}
	if race.Enabled {
		for i := range b {
			b[i] = Poison
		}
	}
	blockPool.Put((*[BlockSize]byte)(b))
}

// Poison is the byte a race build fills every released pool buffer with.
const Poison = 0xA5
