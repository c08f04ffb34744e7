package baseline

import (
	"fmt"
	"hash/fnv"
	"sort"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

// DedupCache uses the SSD as a content-addressed cache: identical blocks
// share one SSD copy (the paper's third baseline, "DeDup"). Compared to
// LRU it stores more distinct data in the same SSD space, but every
// write must hash its content, and writing a block whose old content was
// shared cannot update in place — it allocates a fresh copy, which is
// the copy-on-write overhead the paper observes slowing writes (§5.1).
type DedupCache struct {
	ssd   blockdev.Device
	hdd   blockdev.Device
	cpu   *cpumodel.Accountant
	costs cpumodel.Costs

	blocks int64

	// lbaTo maps a cached LBA to the content node holding its bytes.
	lbaTo map[int64]*dedupNode
	// byHash maps content hash to its node.
	byHash map[uint64]*dedupNode
	// dirtyLBA marks LBAs whose newest content has not reached the HDD.
	dirtyLBA  map[int64]bool
	freeSlots []int64

	head, tail *dedupNode

	// Stats is host-visible accounting.
	Stats CacheStats
	// DedupHits counts writes whose content already existed in cache.
	DedupHits int64
}

// dedupNode is one unique content block resident in the SSD.
type dedupNode struct {
	hash       uint64
	slot       int64
	refs       int // LBAs pointing at this content
	prev, next *dedupNode
}

// NewDedupCache builds a deduplicating cache using all of ssd's capacity
// over hdd.
func NewDedupCache(ssdDev, hddDev blockdev.Device, cpu *cpumodel.Accountant) *DedupCache {
	c := &DedupCache{
		ssd:      ssdDev,
		hdd:      hddDev,
		cpu:      cpu,
		costs:    cpumodel.DefaultCosts(),
		blocks:   hddDev.Blocks(),
		lbaTo:    make(map[int64]*dedupNode),
		byHash:   make(map[uint64]*dedupNode),
		dirtyLBA: make(map[int64]bool),
	}
	capacity := ssdDev.Blocks()
	c.freeSlots = make([]int64, 0, capacity)
	for i := capacity - 1; i >= 0; i-- {
		c.freeSlots = append(c.freeSlots, i)
	}
	return c
}

// Blocks returns the virtual capacity (the HDD size).
func (c *DedupCache) Blocks() int64 { return c.blocks }

// hashContent computes the content fingerprint, charging the CPU model.
func (c *DedupCache) hashContent(b []byte) uint64 {
	c.cpu.ChargeStorage(c.costs.HashBlock)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (c *DedupCache) pushFront(n *dedupNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *DedupCache) unlink(n *dedupNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *DedupCache) touch(n *dedupNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// dropRef decrements a node's reference count, freeing its slot when the
// last LBA leaves. Dirty LBAs must be persisted by the caller first.
func (c *DedupCache) dropRef(n *dedupNode) {
	n.refs--
	if n.refs > 0 {
		return
	}
	c.unlink(n)
	delete(c.byHash, n.hash)
	c.freeSlots = append(c.freeSlots, n.slot)
	c.Stats.Evictions++
}

// allocNode finds or creates the content node for (hash, content),
// returning it plus the SSD cost incurred. mayWrite is false when the
// caller only probes.
func (c *DedupCache) allocNode(hash uint64, content []byte) (*dedupNode, sim.Duration, error) {
	if n, ok := c.byHash[hash]; ok {
		c.touch(n)
		c.DedupHits++
		return n, 0, nil
	}
	// Need a slot: evict unreferenced... all nodes are referenced, so
	// evict the LRU node by spilling its referencing LBAs to the HDD.
	for len(c.freeSlots) == 0 {
		victim := c.tail
		if victim == nil {
			return nil, 0, fmt.Errorf("baseline: dedup cache has no capacity")
		}
		if err := c.evictNode(victim); err != nil {
			return nil, 0, err
		}
	}
	slot := c.freeSlots[len(c.freeSlots)-1]
	c.freeSlots = c.freeSlots[:len(c.freeSlots)-1]
	lat, err := c.ssd.WriteBlock(slot, content)
	if err != nil {
		return nil, 0, err
	}
	n := &dedupNode{hash: hash, slot: slot}
	c.byHash[hash] = n
	c.pushFront(n)
	return n, lat, nil
}

// evictNode removes a content node, writing back any dirty LBAs that
// reference it via the asynchronous cleaner (background time, not
// request latency). LBAs are processed in sorted order so device timing
// is deterministic run to run.
func (c *DedupCache) evictNode(n *dedupNode) error {
	var content []byte
	var victims []int64
	for lba, node := range c.lbaTo {
		if node == n {
			victims = append(victims, lba)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, lba := range victims {
		if c.dirtyLBA[lba] {
			if content == nil {
				content = make([]byte, blockdev.BlockSize)
				d, err := c.ssd.ReadBlock(n.slot, content)
				if err != nil {
					return err
				}
				c.Stats.BackgroundTime += d
			}
			d, err := c.hdd.WriteBlock(lba, content)
			if err != nil {
				return err
			}
			c.Stats.BackgroundTime += d
			delete(c.dirtyLBA, lba)
			c.Stats.Writebacks++
		}
		delete(c.lbaTo, lba)
		n.refs--
	}

	c.unlink(n)
	delete(c.byHash, n.hash)
	c.freeSlots = append(c.freeSlots, n.slot)
	c.Stats.Evictions++
	return nil
}

// ReadBlock serves a read: SSD on (content) hit, HDD + insert on miss.
func (c *DedupCache) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, c.blocks); err != nil {
		return 0, err
	}
	if err := blockdev.CheckBuffer(buf); err != nil {
		return 0, err
	}
	c.cpu.ChargeStorage(c.costs.PerRequest)
	var lat sim.Duration
	if n, ok := c.lbaTo[lba]; ok {
		d, err := c.ssd.ReadBlock(n.slot, buf)
		if err != nil {
			return 0, err
		}
		lat += d
		c.touch(n)
		c.Stats.Hits++
	} else {
		d, err := c.hdd.ReadBlock(lba, buf)
		if err != nil {
			return 0, err
		}
		lat += d
		c.Stats.Misses++
		hash := c.hashContent(buf)
		n, d2, err := c.allocNode(hash, buf)
		if err != nil {
			return 0, err
		}
		lat += d2
		n.refs++
		c.lbaTo[lba] = n
		c.Stats.Promotions++
	}
	c.Stats.NoteRead(blockdev.BlockSize, lat)
	return lat, nil
}

// WriteBlock serves a write: hash the new content; identical content
// shares the existing SSD copy, new content allocates one (copy on
// write when the old content was shared).
func (c *DedupCache) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, c.blocks); err != nil {
		return 0, err
	}
	if err := blockdev.CheckBuffer(buf); err != nil {
		return 0, err
	}
	c.cpu.ChargeStorage(c.costs.PerRequest)
	var lat sim.Duration
	hash := c.hashContent(buf)
	if old, ok := c.lbaTo[lba]; ok {
		if old.hash == hash {
			// Same content rewritten: nothing to store.
			c.touch(old)
			c.DedupHits++
			c.dirtyLBA[lba] = true
			c.Stats.NoteWrite(blockdev.BlockSize, lat)
			return lat, nil
		}
		delete(c.lbaTo, lba)
		c.dropRef(old)
	}
	n, d, err := c.allocNode(hash, buf)
	if err != nil {
		return 0, err
	}
	lat += d
	n.refs++
	c.lbaTo[lba] = n
	c.dirtyLBA[lba] = true
	c.Stats.NoteWrite(blockdev.BlockSize, lat)
	return lat, nil
}

// Flush writes all dirty LBAs back to the HDD in sorted order.
func (c *DedupCache) Flush() error {
	buf := make([]byte, blockdev.BlockSize)
	lbas := make([]int64, 0, len(c.dirtyLBA))
	for lba, dirty := range c.dirtyLBA {
		if dirty {
			lbas = append(lbas, lba)
		}
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	for _, lba := range lbas {
		n, ok := c.lbaTo[lba]
		if !ok {
			continue
		}
		if _, err := c.ssd.ReadBlock(n.slot, buf); err != nil {
			return err
		}
		if _, err := c.hdd.WriteBlock(lba, buf); err != nil {
			return err
		}
		c.dirtyLBA[lba] = false
	}
	return nil
}

// Preload routes initial data to the backing HDD.
func (c *DedupCache) Preload(lba int64, content []byte) error {
	p, ok := c.hdd.(blockdev.Preloader)
	if !ok {
		return fmt.Errorf("baseline: backing HDD does not support preloading")
	}
	return p.Preload(lba, content)
}

var (
	_ blockdev.Device    = (*DedupCache)(nil)
	_ blockdev.Preloader = (*DedupCache)(nil)
)

// ResetStats zeroes the cache statistics.
func (c *DedupCache) ResetStats() { c.Stats = CacheStats{}; c.DedupHits = 0 }
