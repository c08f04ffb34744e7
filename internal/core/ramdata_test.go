package core

import (
	"bytes"
	"runtime"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/race"
	"icash/internal/sim"
)

// blockBasis gives every LBA one basis block (nil: none).
type blockBasis struct{ block []byte }

func (b *blockBasis) Basis(int64) []byte { return b.block }

func newBlockBasis(seed uint64) *blockBasis {
	b := make([]byte, blockdev.BlockSize)
	sim.NewRand(seed).Bytes(b)
	return &blockBasis{b}
}

// nearBasis writes base into buf with 1 to 7 of its chunks changed, the
// count and the chunks set by lba, so a cycle over the LBAs needs
// patches of seven lengths.
func nearBasis(base []byte, lba int64, buf []byte) {
	copy(buf, base)
	for j := range lba%7 + 1 {
		off := (lba*7 + j*13) % 64 * blockdev.PatchChunk
		buf[off+lba%blockdev.PatchChunk] ^= byte(lba) | 1
	}
}

// newRAMDataRig is newEvictRig over near-basis content: tracked blocks
// of generated near-basis content with tracked checksums, room for 64
// in data RAM, every block read once with the basis installed, and no
// scans, flushes or decay in reach.
func newRAMDataRig(tb testing.TB, tracked int64, basis *blockBasis) *testRig {
	cfg := NewDefaultConfig(tracked, 64, 64<<10, 64*blockdev.BlockSize)
	cfg.MetadataBlocks = int(tracked) + 1024
	cfg.ScanPeriod = 1 << 30
	cfg.FlushPeriodOps = 0
	cfg.HeatmapDecayOps = 0
	rig := newTestRig(tb, cfg)
	rig.c.SetBasis(basis)
	rig.hdd.SetFill(func(lba int64, buf []byte) { nearBasis(basis.block, lba, buf) })
	buf := make([]byte, blockdev.BlockSize)
	for lba := range tracked {
		nearBasis(basis.block, lba, buf)
		rig.c.trackSum(lba, buf)
		if _, err := rig.c.ReadBlock(lba, buf); err != nil {
			tb.Fatal(err)
		}
	}
	return rig
}

// TestRAMDataForms: a RAM data block is kept as a patch exactly when
// its basis block is close enough, reads back byte for byte in either
// form, and keeps its content through every basis change.
func TestRAMDataForms(t *testing.T) {
	a, b := newBlockBasis(1), newBlockBasis(2)
	near := make([]byte, blockdev.BlockSize)
	nearBasis(a.block, 6, near)
	far := make([]byte, blockdev.BlockSize)
	sim.NewRand(3).Bytes(far)
	blocks := [][]byte{a.block, near, far, make([]byte, blockdev.BlockSize)}

	rig := newTestRig(t, smallConfig())
	c := rig.c
	check := func(stage string, patched ...bool) {
		t.Helper()
		got := make([]byte, blockdev.BlockSize)
		for i, want := range blocks {
			v := c.lbas[i].v
			if !bytes.Equal(c.readData(v, got), want) {
				t.Fatalf("%s: lba %d reads back wrong", stage, i)
			}
			if p := len(v.dataRAM) < blockdev.BlockSize; p != patched[i] {
				t.Fatalf("%s: lba %d kept as a patch: %v, want %v", stage, i, p, patched[i])
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	c.SetBasis(a)
	for i, blk := range blocks {
		if _, err := c.WriteBlock(int64(i), blk); err != nil {
			t.Fatal(err)
		}
	}
	check("basis a", true, true, false, false)
	if got := testing.AllocsPerRun(10, func() { c.SetBasis(a) }); got != 0 && !race.Enabled {
		t.Fatalf("re-installing the same basis allocated %v objects, want 0", got)
	}
	c.SetBasis(b)
	check("basis b", false, false, false, false)
	c.SetBasis(a)
	check("basis a again", true, true, false, false)
	c.SetBasis(nil)
	check("no basis", false, false, false, false)
	if res, patched := c.DataForms(); res != len(blocks) || patched != 0 {
		t.Fatalf("DataForms = %d resident, %d patched; want %d, 0", res, patched, len(blocks))
	}
}

// TestRAMDataBackoff: after patchStreak fills that keep no patch,
// putData tries only every patchBackoff-th fill, and the first patch
// it keeps restores a try on every fill.
func TestRAMDataBackoff(t *testing.T) {
	basis := newBlockBasis(1)
	rig := newTestRig(t, smallConfig())
	c := rig.c
	c.SetBasis(basis)
	far := make([]byte, blockdev.BlockSize)
	sim.NewRand(3).Bytes(far)
	near := make([]byte, blockdev.BlockSize)
	nearBasis(basis.block, 6, near)
	v := &vblock{lba: 1}
	patched := func() bool { return len(v.dataRAM) < blockdev.BlockSize }
	for range patchStreak + 1 {
		c.putData(v, far)
	}
	c.putData(v, near)
	if patched() {
		t.Fatal("a fill past the streak was diffed off its backoff step")
	}
	tries := 1
	for ; !patched() && tries <= patchBackoff; tries++ {
		c.putData(v, near)
	}
	if !patched() {
		t.Fatalf("no patch kept in %d near fills past the streak", patchBackoff)
	}
	for range 3 {
		if c.putData(v, far); patched() {
			t.Fatal("far content kept as a patch")
		}
		if c.putData(v, near); !patched() {
			t.Fatal("a kept patch did not restore a try on every fill")
		}
	}
	c.freeData(v.dataRAM)
}

// TestAllocGateRAMData gates the patched RAM data cache at zero
// allocations in steady state: a read served from a patch, a rewrite
// whose patch fits the block's buffer, and a miss-and-evict read that
// releases one patch and keeps another.
func TestAllocGateRAMData(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	basis := newBlockBasis(1)
	buf := make([]byte, blockdev.BlockSize)

	t.Run("patched-read", func(t *testing.T) {
		rig := newRAMDataRig(t, 64, basis)
		v := rig.c.lbas[9].v
		if v.dataRAM == nil || len(v.dataRAM) == blockdev.BlockSize {
			t.Fatal("rig: lba 9 is not held as a patch")
		}
		hits := rig.c.Stats.ReadRAMHits
		if got := testing.AllocsPerRun(100, func() {
			if _, err := rig.c.ReadBlock(9, buf); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("patched RAM-hit ReadBlock allocated %v objects/op, want 0", got)
		}
		if rig.c.Stats.ReadRAMHits-hits != 101 {
			t.Fatal("rig: reads were not RAM hits")
		}
	})

	t.Run("rewrite-fits", func(t *testing.T) {
		rig := newRAMDataRig(t, 64, basis)
		v := rig.c.lbas[13].v
		// lba 13 and 20 both change seven chunks, different ones.
		x, y := make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
		nearBasis(basis.block, 13, x)
		nearBasis(basis.block, 20, y)
		if got := testing.AllocsPerRun(100, func() {
			for _, b := range [][]byte{x, y} {
				if err := rig.c.cacheData(v, b, false); err != nil {
					t.Fatal(err)
				}
				rig.c.readData(v, buf)
			}
		}); got != 0 {
			t.Errorf("rewriting a patch that fits allocated %v objects/op, want 0", got)
		}
		if !bytes.Equal(buf, y) || len(v.dataRAM) == blockdev.BlockSize {
			t.Fatal("the rewritten block is not y held as a patch")
		}
	})

	t.Run("evict-cache", func(t *testing.T) {
		rig := newRAMDataRig(t, 1024, basis)
		rig.readMisses(t, 2000, buf) // every patch length released and cached
		before := rig.c.Stats.EvictDataRAM
		if got := testing.AllocsPerRun(10, func() { rig.readMisses(t, 100, buf) }); got != 0 {
			t.Errorf("%v allocations per 100 miss-and-evict reads of patched blocks, want 0", got)
		}
		if got := rig.c.Stats.EvictDataRAM - before; got != 1100 {
			t.Fatalf("%d evictions in 1100 reads, want one each", got)
		}
		if _, patched := rig.c.DataForms(); patched != 64 {
			t.Fatalf("%d of 64 resident blocks held as patches, want all", patched)
		}
		if err := rig.c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRAMDataFootprint: 2,048 resident blocks that each differ from
// the basis in a few chunks cost under 1 KB of heap apiece, tracking
// included, where whole blocks would cost over 4 KB.
func TestRAMDataFootprint(t *testing.T) {
	const n = 2048
	basis := newBlockBasis(1)
	cfg := NewDefaultConfig(n, 64, 64<<10, n*blockdev.BlockSize)
	cfg.MetadataBlocks = n + 1024
	cfg.ScanPeriod = 1 << 30
	rig := newTestRig(t, cfg)
	rig.c.SetBasis(basis)
	rig.hdd.SetFill(func(lba int64, buf []byte) { nearBasis(basis.block, lba, buf) })
	buf := make([]byte, blockdev.BlockSize)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for lba := range int64(n) {
		if _, err := rig.c.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rig)
	if res, patched := rig.c.DataForms(); res != n || patched != n {
		t.Fatalf("rig: %d resident, %d patched; want %d of each", res, patched, n)
	}
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n; per >= 1024 {
		t.Errorf("a resident near-basis block costs %d B of heap, want < 1024", per)
	} else {
		t.Logf("a resident near-basis block costs %d B of heap", per)
	}
}

// TestRAMDataPoison: race builds overwrite a released patch buffer with
// blockdev.Poison, so a slice of it used after the release reads wrong
// bytes.
func TestRAMDataPoison(t *testing.T) {
	if !race.Enabled {
		t.Skip("released patch buffers are poisoned in race builds only")
	}
	rig := newRAMDataRig(t, 64, newBlockBasis(1))
	v := rig.c.lbas[5].v
	e := v.dataRAM
	if len(e) == blockdev.BlockSize {
		t.Fatal("rig: lba 5 is not held as a patch")
	}
	rig.c.releaseData(v)
	for i, x := range e[:cap(e)] {
		if x != blockdev.Poison {
			t.Fatalf("released patch byte %d is %#x, want %#x", i, x, blockdev.Poison)
		}
	}
}
