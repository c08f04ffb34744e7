// Package baseline implements the comparison storage systems from the
// paper's evaluation (§4.4): the SSD-as-LRU-cache hierarchy, the
// deduplicating SSD cache, and the pure-SSD configuration. All of them
// drive the same simulated SSD/HDD devices as the I-CASH controller so
// that every difference in results comes from the management algorithm,
// not the substrate.
package baseline

import (
	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

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

// ssdCache is the core both SSD-cache baselines embed: the SSD used
// whole as cache space over the HDD, the CPU cost model, the stack of
// free SSD slots and the statistics.
type ssdCache struct {
	ssd       blockdev.Device
	hdd       blockdev.Device
	cpu       *cpumodel.Accountant
	costs     cpumodel.Costs
	blocks    int64
	freeSlots []int64

	// Stats is host-visible accounting.
	Stats CacheStats
}

func newSSDCache(ssdDev, hddDev blockdev.Device, cpu *cpumodel.Accountant) ssdCache {
	c := ssdCache{
		ssd:    ssdDev,
		hdd:    hddDev,
		cpu:    cpu,
		costs:  cpumodel.DefaultCosts(),
		blocks: hddDev.Blocks(),
	}
	capacity := ssdDev.Blocks()
	c.freeSlots = make([]int64, 0, capacity)
	for i := capacity - 1; i >= 0; i-- {
		c.freeSlots = append(c.freeSlots, i)
	}
	return c
}

// Blocks returns the virtual capacity (the HDD size).
func (c *ssdCache) Blocks() int64 { return c.blocks }

// admit validates a request and charges its per-request CPU cost.
func (c *ssdCache) admit(lba int64, buf []byte) error {
	if err := blockdev.CheckRange(lba, c.blocks); err != nil {
		return err
	}
	if err := blockdev.CheckBuffer(buf); err != nil {
		return err
	}
	c.cpu.ChargeStorage(c.costs.PerRequest)
	return nil
}

// popSlot takes a free SSD slot; false when every slot is in use.
func (c *ssdCache) popSlot() (int64, bool) {
	n := len(c.freeSlots)
	if n == 0 {
		return 0, false
	}
	s := c.freeSlots[n-1]
	c.freeSlots = c.freeSlots[:n-1]
	return s, true
}

// background charges a successful cleaner I/O (dirty-victim write-back)
// to BackgroundTime, off the request path.
func (c *ssdCache) background(d sim.Duration, err error) error {
	if err == nil {
		c.Stats.BackgroundTime += d
	}
	return err
}

// ResetStats zeroes the cache statistics.
func (c *ssdCache) ResetStats() { c.Stats = CacheStats{} }
