// Package lockmap is a sharded per-address lock manager. The served
// path's one user is server.ShardRouter, which holds a shard's address
// while a request is inside that shard's single-threaded controller.
//
// The idiom is go-nfsd's addrlock/lockmap: a fixed array of buckets,
// each a mutex-guarded set of held addresses with a condition variable
// for waiters. Acquiring an address takes its bucket's mutex only long
// enough to mark the address held (or to park on the condition
// variable); the bucket mutex is never held while the caller runs, so
// two goroutines touching different addresses in the same bucket
// contend only for nanoseconds, and goroutines touching different
// buckets never contend at all.
//
// A caller that holds several addresses at once must take them in
// ascending order (ShardRouter.Flush does), so concurrent holders cannot
// deadlock; TestShardRouterSerializes runs that under -race.
package lockmap

import "sync"

// nBuckets shards the address space. A power of two keeps the bucket
// index a mask; 64 is go-nfsd's sweet spot — enough to make same-bucket
// collisions rare at a few thousand concurrent streams, small enough
// that the zero-value LockMap stays cheap.
const nBuckets = 64

// LockMap provides mutual exclusion per uint64 address. The zero value
// is ready to use. Addresses are a namespace the caller defines — LBAs,
// slot indices, shard ids.
type LockMap struct {
	buckets [nBuckets]bucket
}

// bucket is one shard: a mutex-guarded held-set and a condition
// variable all waiters in the bucket park on. Broadcast wakes every
// waiter on any release; each re-checks its own address. Per-address
// conditions would wake fewer goroutines, but the held-set is expected
// to be sparse and short-lived, and one condition keeps release O(1)
// with no allocation.
type bucket struct {
	mu   sync.Mutex
	cond *sync.Cond
	held map[uint64]struct{}
}

func (lm *LockMap) bucket(addr uint64) *bucket {
	return &lm.buckets[addr&(nBuckets-1)]
}

// Acquire blocks until addr is exclusively held by the caller.
func (lm *LockMap) Acquire(addr uint64) {
	b := lm.bucket(addr)
	b.mu.Lock()
	if b.held == nil {
		b.held = make(map[uint64]struct{})
		b.cond = sync.NewCond(&b.mu)
	}
	for {
		if _, taken := b.held[addr]; !taken {
			b.held[addr] = struct{}{}
			b.mu.Unlock()
			return
		}
		b.cond.Wait()
	}
}

// Release unlocks addr. Releasing an address that is not held panics:
// it means two goroutines believed they owned the same address, which
// is exactly the corruption the map exists to prevent.
func (lm *LockMap) Release(addr uint64) {
	b := lm.bucket(addr)
	b.mu.Lock()
	if _, taken := b.held[addr]; !taken {
		b.mu.Unlock()
		panic("lockmap: Release of address not held")
	}
	delete(b.held, addr)
	b.cond.Broadcast()
	b.mu.Unlock()
}
