// Package baseline implements the comparison storage systems from the
// paper's evaluation (§4.4): the SSD-as-LRU-cache hierarchy, the
// deduplicating SSD cache, and the pure-SSD configuration. All of them
// drive the same simulated SSD/HDD devices as the I-CASH controller so
// that every difference in results comes from the management algorithm,
// not the substrate.
package baseline

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

// LRUCache uses the SSD as a block-granular LRU cache in front of the
// HDD (the paper's fourth baseline). Write-back policy: writes land in
// the SSD and dirty blocks are written to the HDD on eviction; read
// misses fetch from the HDD and promote into the SSD. Every promotion
// and write costs an SSD write — exactly the wear the paper's Table 6
// charges this design with.
type LRUCache struct {
	ssd        blockdev.Device
	hdd        blockdev.Device
	cpu        *cpumodel.Accountant
	costs      cpumodel.Costs
	blocks     int64
	entries    map[int64]*lruEntry
	freeSlots  []int64
	head, tail *lruEntry

	// Stats is host-visible accounting.
	Stats CacheStats
}

// CacheStats aggregates cache-level counters shared by the LRU and
// dedup baselines.
type CacheStats struct {
	blockdev.Stats
	Hits       int64
	Misses     int64
	Promotions int64
	Writebacks int64
	Evictions  int64
	// BackgroundTime is device time spent on asynchronous cleaning
	// (dirty-victim write-back), off the request path.
	BackgroundTime sim.Duration
}

type lruEntry struct {
	lba        int64
	slot       int64
	dirty      bool
	prev, next *lruEntry
}

// NewLRUCache builds an LRU cache using all of ssd's capacity as cache
// space over hdd.
func NewLRUCache(ssdDev, hddDev blockdev.Device, cpu *cpumodel.Accountant) *LRUCache {
	c := &LRUCache{
		ssd:     ssdDev,
		hdd:     hddDev,
		cpu:     cpu,
		costs:   cpumodel.DefaultCosts(),
		blocks:  hddDev.Blocks(),
		entries: make(map[int64]*lruEntry),
	}
	capacity := ssdDev.Blocks()
	c.freeSlots = make([]int64, 0, capacity)
	for i := capacity - 1; i >= 0; i-- {
		c.freeSlots = append(c.freeSlots, i)
	}
	return c
}

// Blocks returns the virtual capacity (the HDD size).
func (c *LRUCache) Blocks() int64 { return c.blocks }

func (c *LRUCache) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *LRUCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *LRUCache) touch(e *lruEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// allocSlot returns a free SSD slot, evicting the LRU entry if needed.
// Dirty victims are written back to the HDD by the asynchronous cleaner
// (accounted as background time, not request latency).
func (c *LRUCache) allocSlot() (int64, error) {
	if n := len(c.freeSlots); n > 0 {
		s := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return s, nil
	}
	victim := c.tail
	if victim == nil {
		return 0, fmt.Errorf("baseline: lru cache has no capacity")
	}
	if victim.dirty {
		buf := make([]byte, blockdev.BlockSize)
		d, err := c.ssd.ReadBlock(victim.slot, buf)
		if err != nil {
			return 0, err
		}
		c.Stats.BackgroundTime += d
		d, err = c.hdd.WriteBlock(victim.lba, buf)
		if err != nil {
			return 0, err
		}
		c.Stats.BackgroundTime += d
		c.Stats.Writebacks++
	}
	c.unlink(victim)
	delete(c.entries, victim.lba)
	c.Stats.Evictions++
	return victim.slot, nil
}

// ReadBlock serves a read: SSD on hit, HDD + promotion on miss.
func (c *LRUCache) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, c.blocks); err != nil {
		return 0, err
	}
	if err := blockdev.CheckBuffer(buf); err != nil {
		return 0, err
	}
	c.cpu.ChargeStorage(c.costs.PerRequest)
	var lat sim.Duration
	if e, ok := c.entries[lba]; ok {
		d, err := c.ssd.ReadBlock(e.slot, buf)
		if err != nil {
			return 0, err
		}
		lat += d
		c.touch(e)
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
		e := &lruEntry{lba: lba, slot: slot}
		c.entries[lba] = e
		c.pushFront(e)
		c.Stats.Promotions++
	}
	c.Stats.NoteRead(blockdev.BlockSize, lat)
	return lat, nil
}

// WriteBlock serves a write: write-back into the SSD cache.
func (c *LRUCache) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, c.blocks); err != nil {
		return 0, err
	}
	if err := blockdev.CheckBuffer(buf); err != nil {
		return 0, err
	}
	c.cpu.ChargeStorage(c.costs.PerRequest)
	var lat sim.Duration
	e, ok := c.entries[lba]
	if !ok {
		slot, err := c.allocSlot()
		if err != nil {
			return 0, err
		}
		e = &lruEntry{lba: lba, slot: slot}
		c.entries[lba] = e
		c.pushFront(e)
	} else {
		c.touch(e)
	}
	d, err := c.ssd.WriteBlock(e.slot, buf)
	if err != nil {
		return 0, err
	}
	lat += d
	e.dirty = true
	c.Stats.NoteWrite(blockdev.BlockSize, lat)
	return lat, nil
}

// Flush writes every dirty cached block back to the HDD (end of run).
func (c *LRUCache) Flush() error {
	buf := make([]byte, blockdev.BlockSize)
	for e := c.head; e != nil; e = e.next {
		if !e.dirty {
			continue
		}
		if _, err := c.ssd.ReadBlock(e.slot, buf); err != nil {
			return err
		}
		if _, err := c.hdd.WriteBlock(e.lba, buf); err != nil {
			return err
		}
		e.dirty = false
	}
	return nil
}

// Preload routes initial data to the backing HDD.
func (c *LRUCache) Preload(lba int64, content []byte) error {
	p, ok := c.hdd.(blockdev.Preloader)
	if !ok {
		return fmt.Errorf("baseline: backing HDD does not support preloading")
	}
	return p.Preload(lba, content)
}

var (
	_ blockdev.Device    = (*LRUCache)(nil)
	_ blockdev.Preloader = (*LRUCache)(nil)
)

// ResetStats zeroes the cache statistics.
func (c *LRUCache) ResetStats() { c.Stats = CacheStats{} }
