package baseline

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

type rig struct {
	ssd   *blockdev.MemDevice
	hdd   *blockdev.MemDevice
	clock *sim.Clock
	cpu   *cpumodel.Accountant
}

func newRig(ssdBlocks, hddBlocks int64) *rig {
	clock := sim.NewClock()
	return &rig{
		ssd:   blockdev.NewMemDevice(ssdBlocks, 10*sim.Microsecond),
		hdd:   blockdev.NewMemDevice(hddBlocks, 5*sim.Millisecond),
		clock: clock,
		cpu:   cpumodel.NewAccountant(),
	}
}

func fill(tag byte) []byte {
	b := make([]byte, blockdev.BlockSize)
	for i := range b {
		b[i] = tag
	}
	return b
}

// shadowCheck drives dev with a random mixed workload, verifying reads
// against a model and returning after flush-verify. A non-nil check
// runs after every op.
func shadowCheck(t *testing.T, dev blockdev.Device, flush func() error, check func() error, hdd *blockdev.MemDevice, seed uint64, ops int) {
	t.Helper()
	r := sim.NewRand(seed)
	model := map[int64][]byte{}
	buf := make([]byte, blockdev.BlockSize)
	out := make([]byte, blockdev.BlockSize)
	for i := 0; i < ops; i++ {
		lba := r.Int63n(dev.Blocks())
		if r.Float64() < 0.5 {
			r.Bytes(buf)
			if _, err := dev.WriteBlock(lba, buf); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
			model[lba] = append([]byte(nil), buf...)
		} else {
			if _, err := dev.ReadBlock(lba, out); err != nil {
				t.Fatalf("op %d read: %v", i, err)
			}
			want := model[lba]
			if want == nil {
				want = make([]byte, blockdev.BlockSize)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("op %d: lba %d content mismatch", i, lba)
			}
		}
		if check != nil {
			if err := check(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// After flush, the backing HDD holds every written block.
	for lba, want := range model {
		if _, err := hdd.ReadBlock(lba, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("post-flush lba %d not durable on HDD", lba)
		}
	}
}

func TestLRUCacheShadow(t *testing.T) {
	rg := newRig(32, 512)
	c := NewLRUCache(rg.ssd, rg.hdd, rg.cpu)
	shadowCheck(t, c, c.Flush, nil, rg.hdd, 11, 5000)
	if c.Stats.Evictions == 0 || c.Stats.Writebacks == 0 {
		t.Errorf("expected evictions and writebacks: %+v", c.Stats)
	}
	if c.Stats.Hits == 0 {
		t.Error("expected some cache hits")
	}
}

func TestDedupCacheShadow(t *testing.T) {
	rg := newRig(32, 512)
	c := NewDedupCache(rg.ssd, rg.hdd, rg.cpu)
	shadowCheck(t, c, c.Flush, c.checkLinks, rg.hdd, 13, 5000)
	if c.Stats.Evictions == 0 {
		t.Errorf("expected evictions: %+v", c.Stats)
	}
}

// checkLinks verifies the dedup cache's two-way LBA links: every listed
// node is indexed by its hash and lists its LBAs ascending, each of
// them mapping back to it, and every cached LBA is listed by its node.
func (c *DedupCache) checkLinks() error {
	nodes, listed := 0, 0
	for n := c.recency.Front(); n != nil; n = n.Next() {
		v := &n.Value
		nodes++
		listed += len(v.lbas)
		if c.byHash[v.hash] != n {
			return fmt.Errorf("node %x is not indexed by its hash", v.hash)
		}
		if len(v.lbas) == 0 || !slices.IsSorted(v.lbas) {
			return fmt.Errorf("node %x lists LBAs %v, want a non-empty ascending list", v.hash, v.lbas)
		}
		for _, lba := range v.lbas {
			if c.lbaTo[lba].node != n {
				return fmt.Errorf("node %x lists lba %d, which maps elsewhere", v.hash, lba)
			}
		}
	}
	for lba, ref := range c.lbaTo {
		if _, found := slices.BinarySearch(ref.node.Value.lbas, lba); !found {
			return fmt.Errorf("lba %d is not listed by its node", lba)
		}
	}
	if nodes != len(c.byHash) || listed != len(c.lbaTo) {
		return fmt.Errorf("%d nodes list %d LBAs; byHash has %d, lbaTo %d", nodes, listed, len(c.byHash), len(c.lbaTo))
	}
	return nil
}

func TestLRUHitFasterThanMiss(t *testing.T) {
	rg := newRig(64, 1024)
	c := NewLRUCache(rg.ssd, rg.hdd, rg.cpu)
	buf := make([]byte, blockdev.BlockSize)
	miss, err := c.ReadBlock(7, buf)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.ReadBlock(7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if hit >= miss {
		t.Fatalf("hit %v not faster than miss %v", hit, miss)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestDedupSharesIdenticalContent(t *testing.T) {
	rg := newRig(64, 1024)
	c := NewDedupCache(rg.ssd, rg.hdd, rg.cpu)
	content := fill(0x42)
	// Write the same content to many LBAs: one SSD copy must serve all.
	for lba := int64(0); lba < 50; lba++ {
		if _, err := c.WriteBlock(lba, content); err != nil {
			t.Fatal(err)
		}
	}
	if c.DedupHits < 49 {
		t.Fatalf("dedup hits = %d, want >= 49", c.DedupHits)
	}
	if got := rg.ssd.Stats.Writes; got != 1 {
		t.Fatalf("SSD writes = %d, want 1 (single shared copy)", got)
	}
	// All LBAs read back the shared content.
	out := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < 50; lba++ {
		c.ReadBlock(lba, out)
		if !bytes.Equal(out, content) {
			t.Fatalf("lba %d content mismatch", lba)
		}
	}
}

func TestDedupCopyOnWrite(t *testing.T) {
	rg := newRig(64, 1024)
	c := NewDedupCache(rg.ssd, rg.hdd, rg.cpu)
	shared := fill(1)
	c.WriteBlock(0, shared)
	c.WriteBlock(1, shared)
	// Writing new content to one LBA must not disturb the other.
	c.WriteBlock(0, fill(2))
	out := make([]byte, blockdev.BlockSize)
	c.ReadBlock(1, out)
	if out[0] != 1 {
		t.Fatal("copy-on-write corrupted the sharing LBA")
	}
	c.ReadBlock(0, out)
	if out[0] != 2 {
		t.Fatal("new content lost")
	}
}

func TestDedupCapacityAdvantage(t *testing.T) {
	// With duplicated content, dedup retains more distinct LBAs in SSD
	// than LRU can (the paper's motivation for the Dedup baseline).
	mkContent := func(lba int64) []byte { return fill(byte(lba % 4)) } // only 4 distinct contents
	run := func(dev blockdev.Device) (hits int64) {
		buf := make([]byte, blockdev.BlockSize)
		for pass := 0; pass < 2; pass++ {
			for lba := int64(0); lba < 64; lba++ {
				copy(buf, mkContent(lba))
				dev.WriteBlock(lba, buf)
			}
		}
		return 0
	}
	rgL := newRig(8, 256)
	lru := NewLRUCache(rgL.ssd, rgL.hdd, rgL.cpu)
	run(lru)
	rgD := newRig(8, 256)
	ddp := NewDedupCache(rgD.ssd, rgD.hdd, rgD.cpu)
	run(ddp)
	if ddp.Stats.Evictions >= lru.Stats.Evictions {
		t.Fatalf("dedup evictions %d should be below lru %d on duplicate-heavy content",
			ddp.Stats.Evictions, lru.Stats.Evictions)
	}
}

func TestPureSSD(t *testing.T) {
	cpu := cpumodel.NewAccountant()
	ssd := blockdev.NewMemDevice(128, 20*sim.Microsecond)
	p := NewPureSSD(ssd, cpu)
	if p.Blocks() != 128 {
		t.Fatalf("Blocks = %d", p.Blocks())
	}
	buf := fill(9)
	if _, err := p.WriteBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, blockdev.BlockSize)
	if _, err := p.ReadBlock(5, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, buf) {
		t.Fatal("content mismatch")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.Ops() != 2 {
		t.Fatalf("ops = %d", p.Stats.Ops())
	}
	p.ResetStats()
	if p.Stats.Ops() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCacheBounds(t *testing.T) {
	rg := newRig(8, 64)
	lru := NewLRUCache(rg.ssd, rg.hdd, rg.cpu)
	buf := make([]byte, blockdev.BlockSize)
	if _, err := lru.ReadBlock(64, buf); err == nil {
		t.Error("lru out-of-range read must fail")
	}
	if _, err := lru.WriteBlock(0, buf[:9]); err == nil {
		t.Error("lru short buffer must fail")
	}
	ddp := NewDedupCache(rg.ssd, rg.hdd, rg.cpu)
	if _, err := ddp.ReadBlock(-1, buf); err == nil {
		t.Error("dedup negative read must fail")
	}
	if _, err := ddp.WriteBlock(64, buf); err == nil {
		t.Error("dedup out-of-range write must fail")
	}
}
