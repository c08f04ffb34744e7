package ssd

import (
	"bytes"
	"testing"
	"testing/quick"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

func smallConfig(capacity int64) Config {
	cfg := DefaultConfig(capacity)
	cfg.ReadCacheBlocks = 16
	cfg.MapCacheEntries = 32
	return cfg
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(smallConfig(256))
	buf := make([]byte, blockdev.BlockSize)
	out := make([]byte, blockdev.BlockSize)
	r := sim.NewRand(1)
	model := map[int64][]byte{}
	for i := 0; i < 2000; i++ {
		lba := int64(r.Intn(256))
		if r.Float64() < 0.6 {
			r.Bytes(buf)
			if _, err := d.WriteBlock(lba, buf); err != nil {
				t.Fatalf("write: %v", err)
			}
			model[lba] = append([]byte(nil), buf...)
		} else {
			if _, err := d.ReadBlock(lba, out); err != nil {
				t.Fatalf("read: %v", err)
			}
			want := model[lba]
			if want == nil {
				want = make([]byte, blockdev.BlockSize)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("lba %d content mismatch", lba)
			}
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCReclaimsAndWears(t *testing.T) {
	d := New(smallConfig(512))
	buf := make([]byte, blockdev.BlockSize)
	r := sim.NewRand(2)
	// Overwrite heavily to force garbage collection.
	for i := 0; i < 20000; i++ {
		r.Bytes(buf[:64])
		if _, err := d.WriteBlock(int64(r.Intn(512)), buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if d.Stats.GCRuns == 0 || d.Stats.Erases == 0 {
		t.Fatalf("expected GC under overwrite load: runs=%d erases=%d", d.Stats.GCRuns, d.Stats.Erases)
	}
	if d.Stats.PagesRelocated == 0 {
		t.Fatal("expected GC relocations")
	}
	if wa := d.Stats.WriteAmplification(); wa < 1 {
		t.Fatalf("write amplification %f < 1", wa)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWearLeveling(t *testing.T) {
	// With wear-aware victim selection, erase counts should not diverge
	// wildly even under a skewed overwrite pattern.
	cfg := smallConfig(512)
	cfg.WearWeight = 0.5
	d := New(cfg)
	buf := make([]byte, blockdev.BlockSize)
	r := sim.NewRand(3)
	for i := 0; i < 30000; i++ {
		// 90% of writes hit 10% of the space.
		var lba int64
		if r.Float64() < 0.9 {
			lba = int64(r.Intn(51))
		} else {
			lba = int64(r.Intn(512))
		}
		r.Bytes(buf[:32])
		if _, err := d.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	counts := d.EraseCounts()
	max, sum, n := 0, 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
		n++
	}
	mean := float64(sum) / float64(n)
	if mean > 0 && float64(max) > 8*mean {
		t.Fatalf("wear imbalance: max=%d mean=%.1f", max, mean)
	}
}

func TestLatencyOrdering(t *testing.T) {
	// A cached read must be cheaper than a cold read; a write must cost
	// at least the interleaved program time.
	cfg := smallConfig(1024)
	d := New(cfg)
	buf := make([]byte, blockdev.BlockSize)
	wLat, err := d.WriteBlock(7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if wLat < cfg.PageProgramLatency/sim.Duration(cfg.Channels) {
		t.Fatalf("write latency %v below program time", wLat)
	}
	hot, _ := d.ReadBlock(7, buf) // written block is device-cached
	// Touch many other blocks to evict lba 7 from the read cache.
	for i := int64(100); i < 100+int64(cfg.ReadCacheBlocks)*2; i++ {
		d.ReadBlock(i, buf)
	}
	cold, _ := d.ReadBlock(7, buf)
	if hot >= cold {
		t.Fatalf("cached read %v should be faster than cold read %v", hot, cold)
	}
}

func TestMapCachePenalty(t *testing.T) {
	cfg := smallConfig(4096)
	cfg.ReadCacheBlocks = 8
	cfg.MapCacheEntries = 64
	d := New(cfg)
	buf := make([]byte, blockdev.BlockSize)
	// Sweep a footprint much larger than the map cache.
	for i := int64(0); i < 4096; i++ {
		d.ReadBlock(i, buf)
	}
	if d.Stats.MapMisses == 0 {
		t.Fatal("sweeping a large footprint should miss the map cache")
	}
}

func TestBoundsAndPreload(t *testing.T) {
	d := New(smallConfig(64))
	buf := make([]byte, blockdev.BlockSize)
	if _, err := d.ReadBlock(-1, buf); err == nil {
		t.Error("negative lba must fail")
	}
	if _, err := d.WriteBlock(64, buf); err == nil {
		t.Error("out-of-range lba must fail")
	}
	if _, err := d.ReadBlock(0, buf[:10]); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestFillOracle(t *testing.T) {
	d := New(smallConfig(64))
	d.SetFill(func(lba int64, buf []byte) {
		for i := range buf {
			buf[i] = byte(lba)
		}
	})
	buf := make([]byte, blockdev.BlockSize)
	d.ReadBlock(9, buf)
	if buf[0] != 9 || buf[4095] != 9 {
		t.Fatal("fill oracle not used for unwritten block")
	}
	// A write overrides the oracle.
	w := make([]byte, blockdev.BlockSize)
	w[0] = 77
	d.WriteBlock(9, w)
	d.ReadBlock(9, buf)
	if buf[0] != 77 {
		t.Fatal("written content must override the oracle")
	}
}

// Property: after any random operation sequence, FTL invariants hold
// and content matches a shadow model.
func TestFTLInvariantsProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		ops := int(opsRaw)%3000 + 100
		d := New(smallConfig(128))
		r := sim.NewRand(seed)
		model := map[int64]byte{}
		buf := make([]byte, blockdev.BlockSize)
		for i := 0; i < ops; i++ {
			lba := int64(r.Intn(128))
			if r.Float64() < 0.7 {
				tag := byte(r.Uint64())
				for j := range buf {
					buf[j] = tag
				}
				if _, err := d.WriteBlock(lba, buf); err != nil {
					return false
				}
				model[lba] = tag
			} else {
				if _, err := d.ReadBlock(lba, buf); err != nil {
					return false
				}
				if buf[0] != model[lba] {
					return false
				}
			}
		}
		return d.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClockCache(t *testing.T) {
	c := newClockCache(3)
	keys := []int64{1, 2, 3}
	for _, k := range keys {
		if c.touch(k) {
			t.Fatalf("key %d should miss on first touch", k)
		}
	}
	for _, k := range keys {
		if !c.touch(k) {
			t.Fatalf("key %d should hit", k)
		}
	}
	c.touch(4) // evicts something
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}
	if !c.contains(4) {
		t.Fatal("newly inserted key must be present")
	}
}
