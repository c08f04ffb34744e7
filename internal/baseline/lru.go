package baseline

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/lru"
	"icash/internal/sim"
)

// LRUCache uses the SSD as a block-granular LRU cache in front of the
// HDD (the paper's fourth baseline). Write-back policy: writes land in
// the SSD and dirty blocks are written to the HDD on eviction; read
// misses fetch from the HDD and promote into the SSD. Every promotion
// and write costs an SSD write — exactly the wear the paper's Table 6
// charges this design with.
type LRUCache struct {
	ssdCache
	entries map[int64]*lru.Node[lruEntry]
	recency lru.List[lruEntry]
}

type lruEntry struct {
	lba   int64
	slot  int64
	dirty bool
}

// NewLRUCache builds an LRU cache using all of ssd's capacity as cache
// space over hdd.
func NewLRUCache(ssdDev, hddDev blockdev.Device, cpu *cpumodel.Accountant) *LRUCache {
	return &LRUCache{
		ssdCache: newSSDCache(ssdDev, hddDev, cpu),
		entries:  make(map[int64]*lru.Node[lruEntry]),
	}
}

// allocSlot returns a free SSD slot, evicting the LRU entry if needed.
// Dirty victims are written back to the HDD by the asynchronous cleaner
// (accounted as background time, not request latency).
func (c *LRUCache) allocSlot() (int64, error) {
	if s, ok := c.popSlot(); ok {
		return s, nil
	}
	victim := c.recency.Back()
	if victim == nil {
		return 0, fmt.Errorf("baseline: lru cache has no capacity")
	}
	v := &victim.Value
	if v.dirty {
		buf := make([]byte, blockdev.BlockSize)
		if err := c.background(c.ssd.ReadBlock(v.slot, buf)); err != nil {
			return 0, err
		}
		if err := c.background(c.hdd.WriteBlock(v.lba, buf)); err != nil {
			return 0, err
		}
		c.Stats.Writebacks++
	}
	c.recency.Remove(victim)
	delete(c.entries, v.lba)
	c.Stats.Evictions++
	return v.slot, nil
}

// insert caches lba in a freshly allocated slot as the most recent entry.
func (c *LRUCache) insert(lba, slot int64) *lru.Node[lruEntry] {
	e := &lru.Node[lruEntry]{Value: lruEntry{lba: lba, slot: slot}}
	c.entries[lba] = e
	c.recency.PushFront(e)
	return e
}

// ReadBlock serves a read: SSD on hit, HDD + promotion on miss.
func (c *LRUCache) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := c.admit(lba, buf); err != nil {
		return 0, err
	}
	var lat sim.Duration
	if e, ok := c.entries[lba]; ok {
		d, err := c.ssd.ReadBlock(e.Value.slot, buf)
		if err != nil {
			return 0, err
		}
		lat += d
		c.recency.Touch(e)
		c.Stats.Hits++
	} else {
		d, err := c.hdd.ReadBlock(lba, buf)
		if err != nil {
			return 0, err
		}
		lat += d
		c.Stats.Misses++
		// Promote into the cache (inline, like a kernel block cache).
		slot, err := c.allocSlot()
		if err != nil {
			return 0, err
		}
		d, err = c.ssd.WriteBlock(slot, buf)
		if err != nil {
			return 0, err
		}
		lat += d
		c.insert(lba, slot)
		c.Stats.Promotions++
	}
	c.Stats.NoteRead(blockdev.BlockSize, lat)
	return lat, nil
}

// WriteBlock serves a write: write-back into the SSD cache.
func (c *LRUCache) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := c.admit(lba, buf); err != nil {
		return 0, err
	}
	e, ok := c.entries[lba]
	if !ok {
		slot, err := c.allocSlot()
		if err != nil {
			return 0, err
		}
		e = c.insert(lba, slot)
	} else {
		c.recency.Touch(e)
	}
	lat, err := c.ssd.WriteBlock(e.Value.slot, buf)
	if err != nil {
		return 0, err
	}
	e.Value.dirty = true
	c.Stats.NoteWrite(blockdev.BlockSize, lat)
	return lat, nil
}

// Flush writes every dirty cached block back to the HDD (end of run).
func (c *LRUCache) Flush() error {
	buf := make([]byte, blockdev.BlockSize)
	for e := c.recency.Front(); e != nil; e = e.Next() {
		v := &e.Value
		if !v.dirty {
			continue
		}
		if _, err := c.ssd.ReadBlock(v.slot, buf); err != nil {
			return err
		}
		if _, err := c.hdd.WriteBlock(v.lba, buf); err != nil {
			return err
		}
		v.dirty = false
	}
	return nil
}

var _ blockdev.Device = (*LRUCache)(nil)
