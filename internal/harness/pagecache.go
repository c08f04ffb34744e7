package harness

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
	index    map[int64]*pcEntry
	head     *pcEntry
	tail     *pcEntry

	hits, misses int64
}

type pcEntry struct {
	lba        int64
	prev, next *pcEntry
}

func newPageCache(capacity int) *pageCache {
	return &pageCache{capacity: capacity, index: make(map[int64]*pcEntry, capacity)}
}

func (p *pageCache) pushFront(e *pcEntry) {
	e.prev = nil
	e.next = p.head
	if p.head != nil {
		p.head.prev = e
	}
	p.head = e
	if p.tail == nil {
		p.tail = e
	}
}

func (p *pageCache) unlink(e *pcEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lookup reports whether lba is cached, updating recency and counters.
func (p *pageCache) lookup(lba int64) bool {
	if p.capacity <= 0 {
		p.misses++
		return false
	}
	if e, ok := p.index[lba]; ok {
		if p.head != e {
			p.unlink(e)
			p.pushFront(e)
		}
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
		if p.head != e {
			p.unlink(e)
			p.pushFront(e)
		}
		return
	}
	if len(p.index) >= p.capacity {
		// Recycle the evicted entry in place of a fresh allocation: once
		// the cache is warm, steady-state inserts allocate nothing.
		victim := p.tail
		p.unlink(victim)
		delete(p.index, victim.lba)
		victim.lba = lba
		p.index[lba] = victim
		p.pushFront(victim)
		return
	}
	e := &pcEntry{lba: lba}
	p.index[lba] = e
	p.pushFront(e)
}
