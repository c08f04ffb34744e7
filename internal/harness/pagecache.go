package harness

import "icash/internal/lru"

// pageCache models the guest operating system's page cache, which sits
// above the virtual disk in the paper's KVM prototype (§4.1). Every
// system under test gets an identical instance sized from the
// benchmark's VM RAM (Table 4), so differences between systems come
// from the storage stack, not from caching above it.
//
// The cache tracks presence only (contents live on the devices) with an
// LRU policy; reads that hit never reach the storage system, writes are
// write-through (databases and file servers issue synchronous writes).
type pageCache struct {
	capacity int
	index    map[int64]*lru.Node[int64]
	recency  lru.List[int64]

	hits, misses int64
}

func newPageCache(capacity int) *pageCache {
	return &pageCache{capacity: capacity, index: make(map[int64]*lru.Node[int64], capacity)}
}

// lookup reports whether lba is cached, updating recency and counters.
// A cache of no capacity never inserts, so it always misses.
func (p *pageCache) lookup(lba int64) bool {
	if e, ok := p.index[lba]; ok {
		p.recency.Touch(e)
		p.hits++
		return true
	}
	p.misses++
	return false
}

// insert caches lba (no-op when already present), evicting LRU entries.
func (p *pageCache) insert(lba int64) {
	if p.capacity <= 0 {
		return
	}
	if e, ok := p.index[lba]; ok {
		p.recency.Touch(e)
		return
	}
	if len(p.index) >= p.capacity {
		// Recycle the evicted entry in place of a fresh allocation: once
		// the cache is warm, steady-state inserts allocate nothing.
		victim := p.recency.Back()
		p.recency.Remove(victim)
		delete(p.index, victim.Value)
		victim.Value = lba
		p.index[lba] = victim
		p.recency.PushFront(victim)
		return
	}
	e := &lru.Node[int64]{Value: lba}
	p.index[lba] = e
	p.recency.PushFront(e)
}
