package baseline

import (
	"fmt"
	"hash/fnv"
	"slices"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/lru"
	"icash/internal/sim"
)

// DedupCache uses the SSD as a content-addressed cache: identical blocks
// share one SSD copy (the paper's third baseline, "DeDup"). Compared to
// LRU it stores more distinct data in the same SSD space, but every
// write must hash its content, and writing a block whose old content was
// shared cannot update in place — it allocates a fresh copy, which is
// the copy-on-write overhead the paper observes slowing writes (§5.1).
type DedupCache struct {
	ssdCache

	// lbaTo maps a cached LBA to the content node holding its bytes.
	lbaTo map[int64]lbaRef
	// byHash maps content hash to its node.
	byHash  map[uint64]*lru.Node[dedupNode]
	recency lru.List[dedupNode]

	// DedupHits counts writes whose content already existed in cache.
	DedupHits int64
}

// dedupNode is one unique content block resident in the SSD.
type dedupNode struct {
	hash uint64
	slot int64
	lbas []int64 // the cached LBAs holding this content, ascending
}

// lbaRef is a cached LBA's content node, and whether the LBA's newest
// content has yet to reach the HDD.
type lbaRef struct {
	node  *lru.Node[dedupNode]
	dirty bool
}

// NewDedupCache builds a deduplicating cache using all of ssd's capacity
// over hdd.
func NewDedupCache(ssdDev, hddDev blockdev.Device, cpu *cpumodel.Accountant) *DedupCache {
	return &DedupCache{
		ssdCache: newSSDCache(ssdDev, hddDev, cpu),
		lbaTo:    make(map[int64]lbaRef),
		byHash:   make(map[uint64]*lru.Node[dedupNode]),
	}
}

// hashContent computes the content fingerprint, charging the CPU model.
func (c *DedupCache) hashContent(b []byte) uint64 {
	c.cpu.ChargeStorage(c.costs.HashBlock)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// link points lba at n's content.
func (c *DedupCache) link(lba int64, n *lru.Node[dedupNode], dirty bool) {
	i, _ := slices.BinarySearch(n.Value.lbas, lba)
	n.Value.lbas = slices.Insert(n.Value.lbas, i, lba)
	c.lbaTo[lba] = lbaRef{node: n, dirty: dirty}
}

// unlink drops lba from its node n, freeing the node's slot when the
// last LBA leaves. A dirty LBA must be persisted by the caller first.
func (c *DedupCache) unlink(lba int64, n *lru.Node[dedupNode]) {
	delete(c.lbaTo, lba)
	i, _ := slices.BinarySearch(n.Value.lbas, lba)
	n.Value.lbas = slices.Delete(n.Value.lbas, i, i+1)
	if len(n.Value.lbas) == 0 {
		c.freeNode(n)
	}
}

// freeNode returns an unreferenced node's slot to the free stack.
func (c *DedupCache) freeNode(n *lru.Node[dedupNode]) {
	c.recency.Remove(n)
	delete(c.byHash, n.Value.hash)
	c.freeSlots = append(c.freeSlots, n.Value.slot)
	c.Stats.Evictions++
}

// allocNode finds or creates the content node for (hash, content),
// returning it plus the SSD cost incurred.
func (c *DedupCache) allocNode(hash uint64, content []byte) (*lru.Node[dedupNode], sim.Duration, error) {
	if n, ok := c.byHash[hash]; ok {
		c.recency.Touch(n)
		c.DedupHits++
		return n, 0, nil
	}
	// Every node is referenced, so a full cache makes room by evicting
	// the LRU node, spilling its dirty LBAs to the HDD.
	slot, ok := c.popSlot()
	for !ok {
		victim := c.recency.Back()
		if victim == nil {
			return nil, 0, fmt.Errorf("baseline: dedup cache has no capacity")
		}
		if err := c.evictNode(victim); err != nil {
			return nil, 0, err
		}
		slot, ok = c.popSlot()
	}
	lat, err := c.ssd.WriteBlock(slot, content)
	if err != nil {
		return nil, 0, err
	}
	n := &lru.Node[dedupNode]{Value: dedupNode{hash: hash, slot: slot}}
	c.byHash[hash] = n
	c.recency.PushFront(n)
	return n, lat, nil
}

// evictNode removes a content node, writing back any dirty LBAs that
// reference it via the asynchronous cleaner (background time, not
// request latency), lowest LBA first so device timing is deterministic.
// A failed write-back leaves the node listing the LBAs still mapped to it.
func (c *DedupCache) evictNode(n *lru.Node[dedupNode]) error {
	var content []byte
	for v := &n.Value; len(v.lbas) > 0; v.lbas = v.lbas[1:] {
		lba := v.lbas[0]
		if c.lbaTo[lba].dirty {
			if content == nil {
				content = make([]byte, blockdev.BlockSize)
				if err := c.background(c.ssd.ReadBlock(v.slot, content)); err != nil {
					return err
				}
			}
			if err := c.background(c.hdd.WriteBlock(lba, content)); err != nil {
				return err
			}
			c.Stats.Writebacks++
		}
		delete(c.lbaTo, lba)
	}
	c.freeNode(n)
	return nil
}

// ReadBlock serves a read: SSD on (content) hit, HDD + insert on miss.
func (c *DedupCache) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := c.admit(lba, buf); err != nil {
		return 0, err
	}
	var lat sim.Duration
	if ref, ok := c.lbaTo[lba]; ok {
		d, err := c.ssd.ReadBlock(ref.node.Value.slot, buf)
		if err != nil {
			return 0, err
		}
		lat += d
		c.recency.Touch(ref.node)
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
		c.link(lba, n, false)
		c.Stats.Promotions++
	}
	c.Stats.NoteRead(blockdev.BlockSize, lat)
	return lat, nil
}

// WriteBlock serves a write: hash the new content; identical content
// shares the existing SSD copy, new content allocates one (copy on
// write when the old content was shared).
func (c *DedupCache) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := c.admit(lba, buf); err != nil {
		return 0, err
	}
	hash := c.hashContent(buf)
	if old, ok := c.lbaTo[lba]; ok {
		if old.node.Value.hash == hash {
			// Same content rewritten: nothing to store.
			c.recency.Touch(old.node)
			c.DedupHits++
			c.lbaTo[lba] = lbaRef{node: old.node, dirty: true}
			c.Stats.NoteWrite(blockdev.BlockSize, 0)
			return 0, nil
		}
		c.unlink(lba, old.node)
	}
	n, lat, err := c.allocNode(hash, buf)
	if err != nil {
		return 0, err
	}
	c.link(lba, n, true)
	c.Stats.NoteWrite(blockdev.BlockSize, lat)
	return lat, nil
}

// Flush writes all dirty LBAs back to the HDD in sorted order.
func (c *DedupCache) Flush() error {
	buf := make([]byte, blockdev.BlockSize)
	var lbas []int64
	for lba, ref := range c.lbaTo {
		if ref.dirty {
			lbas = append(lbas, lba)
		}
	}
	slices.Sort(lbas)
	for _, lba := range lbas {
		ref := c.lbaTo[lba]
		if _, err := c.ssd.ReadBlock(ref.node.Value.slot, buf); err != nil {
			return err
		}
		if _, err := c.hdd.WriteBlock(lba, buf); err != nil {
			return err
		}
		c.lbaTo[lba] = lbaRef{node: ref.node}
	}
	return nil
}

var (
	_ blockdev.Device    = (*DedupCache)(nil)
	_ blockdev.Preloader = (*DedupCache)(nil)
)

// ResetStats zeroes the cache statistics.
func (c *DedupCache) ResetStats() { c.ssdCache.ResetStats(); c.DedupHits = 0 }
