package blockdev

import (
	"testing"

	"icash/internal/race"
)

func TestBlockPoolShape(t *testing.T) {
	b := GetBlock()
	if len(b) != BlockSize || cap(b) != BlockSize {
		t.Fatalf("GetBlock returned len %d cap %d, want %d/%d",
			len(b), cap(b), BlockSize, BlockSize)
	}
	PutBlock(b)

	// Wrong-shaped slices are dropped, not pooled: a short slice must
	// never come back from GetBlock.
	PutBlock(make([]byte, 10))
	PutBlock(nil)
	PutBlock(make([]byte, BlockSize, 2*BlockSize))
	for i := 0; i < 64; i++ {
		g := GetBlock()
		if len(g) != BlockSize || cap(g) != BlockSize {
			t.Fatalf("pool handed out a wrong-shaped buffer: len %d cap %d", len(g), cap(g))
		}
	}
}

func TestBlockPoolRecycles(t *testing.T) {
	// Not guaranteed by sync.Pool in general, but on a single goroutine
	// with no GC in between, a Put buffer is the next Get.
	b := GetBlock()
	b[0] = 0xEE
	PutBlock(b)
	g := GetBlock()
	defer PutBlock(g)
	if &g[0] != &b[0] {
		t.Skip("pool did not recycle (GC ran); nothing to assert")
	}
	// Get must not zero; a race build poisons the buffer on Put.
	want := byte(0xEE)
	if race.Enabled {
		want = Poison
	}
	if g[0] != want {
		t.Fatalf("recycled buffer holds %#x, want %#x", g[0], want)
	}
}

func TestAllocGateBlockPool(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	// Steady-state Get/Put cycles must not allocate: the pool stores
	// array pointers, so there is no boxing on either side.
	if got := testing.AllocsPerRun(100, func() {
		b := GetBlock()
		b[0]++
		PutBlock(b)
	}); got != 0 {
		t.Fatalf("Get/Put cycle allocated %v objects/op, want 0", got)
	}
}
