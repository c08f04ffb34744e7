package server

import (
	"fmt"

	"icash/internal/lockmap"
	"icash/internal/sim"
)

// ShardRouter fans concurrent sessions across the per-shard backends of
// a sharded array. Each shard is still single-threaded — determinism
// inside a shard comes from serialized mutation under the one sim.Clock
// — so the router holds a per-shard address in a lockmap while a
// request is inside that shard. Sessions whose partitions land on
// different shards (the block service aligns VM images to shard
// boundaries) proceed in parallel; sessions sharing a shard serialize
// on its address exactly as the retired LockedBackend serialized the
// whole array.
//
// The simulated durations the shards return are reported on the wire
// but not slept out, same as before; the clock is only read on this
// path, never advanced, which is what makes cross-shard concurrency
// safe at all.
type ShardRouter struct {
	locks       lockmap.LockMap // one address per shard index
	shards      []Backend
	shardBlocks int64
	blocks      int64
}

// NewShardRouter composes per-shard backends into one Backend spanning
// their concatenated LBA ranges. All shards must report the same size —
// the routing divide depends on it (core.NewSharded enforces the same
// uniformity one layer down). A single-element slice degenerates to the
// old whole-array funnel: one address, every session behind it.
func NewShardRouter(shards []Backend) (*ShardRouter, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("server: NewShardRouter: no shards")
	}
	per := shards[0].Blocks()
	if per <= 0 {
		return nil, fmt.Errorf("server: NewShardRouter: shard 0 reports %d blocks", per)
	}
	for i, s := range shards[1:] {
		if s.Blocks() != per {
			return nil, fmt.Errorf("server: NewShardRouter: shard %d has %d blocks, shard 0 has %d (shards must be uniform)",
				i+1, s.Blocks(), per)
		}
	}
	return &ShardRouter{
		shards:      shards,
		shardBlocks: per,
		blocks:      per * int64(len(shards)),
	}, nil
}

// route maps a global LBA to (shard index, shard-local LBA).
func (r *ShardRouter) route(lba int64) (int, int64, error) {
	if lba < 0 || lba >= r.blocks {
		return 0, 0, fmt.Errorf("server: lba %d out of range [0,%d)", lba, r.blocks)
	}
	return int(lba / r.shardBlocks), lba % r.shardBlocks, nil
}

// ReadBlock serializes a read onto the owning shard. The shard address
// is the per-shard exclusion token: holding it across the device call
// serializes only this shard's single-threaded controller — other
// shards keep serving.
func (r *ShardRouter) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	shard, local, err := r.route(lba)
	if err != nil {
		return 0, err
	}
	r.locks.Acquire(uint64(shard))
	defer r.locks.Release(uint64(shard))
	return r.shards[shard].ReadBlock(local, buf)
}

// WriteBlock serializes a write onto the owning shard.
func (r *ShardRouter) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	shard, local, err := r.route(lba)
	if err != nil {
		return 0, err
	}
	r.locks.Acquire(uint64(shard))
	defer r.locks.Release(uint64(shard))
	return r.shards[shard].WriteBlock(local, buf)
}

// Flush drains every shard under a whole-array barrier: all shard
// addresses are acquired in ascending index order, every shard is
// flushed, and the first error wins. Holding the full set briefly
// quiesces the array, which is exactly what a flush barrier — drain,
// registry shutdown, crash-consistency checkpoints — asks for.
//
// Distinct addresses taken in ascending index order cannot form an
// ABBA cycle against a concurrent flush, and the per-shard device work
// runs under that shard's own exclusion token, same as the read/write
// paths. TestShardRouterSerializes runs concurrent writers and flushers
// through the barrier under -race.
func (r *ShardRouter) Flush() error {
	for i := range r.shards {
		r.locks.Acquire(uint64(i))
	}
	var firstErr error
	for i, s := range r.shards {
		if err := s.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: shard %d flush: %w", i, err)
		}
	}
	for i := range r.shards {
		r.locks.Release(uint64(i))
	}
	return firstErr
}

// Blocks reports the composed size. It is fixed at construction, so no
// lock is taken.
func (r *ShardRouter) Blocks() int64 { return r.blocks }

// NumShards reports the shard count.
func (r *ShardRouter) NumShards() int { return len(r.shards) }

// ShardBlocks reports the per-shard capacity.
func (r *ShardRouter) ShardBlocks() int64 { return r.shardBlocks }
