// Package core implements the I-CASH controller: the "intelligent
// algorithm" that couples an SSD holding seldom-changed reference blocks
// with an HDD holding a log of content deltas (paper §3–§4).
//
// The controller exposes a virtual disk (blockdev.Device). Underneath:
//
//   - the HDD carries a primary region (home location of every virtual
//     block) followed by a circular delta-log region;
//   - the SSD carries reference blocks, selected by Heatmap popularity,
//     plus occasional write-through blocks whose deltas exceeded the
//     threshold (paper §5.3);
//   - controller RAM buffers deltas (64-byte segment granularity) and
//     caches full data blocks.
//
// Reads are served by combining an SSD reference with a RAM- or
// log-resident delta; writes are served by delta-encoding against the
// reference into RAM and later packing many deltas into one sequential
// log write — one HDD operation accomplishing many I/Os.
package core

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// Config parameterizes a Controller. NewDefaultConfig supplies the
// paper's prototype constants.
type Config struct {
	// VirtualBlocks is the size of the exposed virtual disk in blocks.
	VirtualBlocks int64

	// SSDBlocks is the reference-store capacity in blocks (the paper
	// typically provisions ~10% of the data-set size).
	SSDBlocks int64

	// DeltaRAMBytes is the RAM budget for delta segments.
	DeltaRAMBytes int64
	// DataRAMBytes is the RAM budget for cached full data blocks.
	DataRAMBytes int64
	// MetadataBlocks caps tracked virtual blocks (LRU-managed). Zero
	// derives a default from the RAM budgets.
	MetadataBlocks int

	// ScanPeriod is the number of I/Os between similarity scans (paper:
	// 2,000).
	ScanPeriod int
	// ScanWindow is how many blocks from the head of the LRU queue each
	// scan examines (paper: 4,000).
	ScanWindow int
	// MaxSigDistance is the maximum number of differing sub-signatures
	// for two blocks to be considered similarity candidates.
	MaxSigDistance int

	// DeltaThreshold is the maximum stored delta size in bytes; larger
	// deltas cause a direct write instead (paper: 2,048).
	DeltaThreshold int
	// SegmentSize is the delta allocation granularity (paper: 64-byte
	// segments).
	SegmentSize int

	// LogBlocks is the HDD delta-log region size in blocks.
	LogBlocks int64
	// FlushDirtyBytes triggers a delta flush when this many dirty delta
	// bytes accumulate. The flush interval is the paper's tunable
	// reliability/performance knob (§3.3).
	FlushDirtyBytes int64
	// FlushPeriodOps flushes dirty deltas at least every this many I/Os
	// regardless of volume (0 disables periodic flushing).
	FlushPeriodOps int

	// VMImageBlocks partitions the virtual disk into equal-sized VM
	// images (the prototype derives a VM identifier from the most
	// significant byte of the virtual disk address, §4.1; here the image
	// size plays that role so addresses stay within the disk). Blocks at
	// the same offset in different images are first-load similarity
	// candidates. Zero disables VM-aware pairing.
	VMImageBlocks int64

	// HeatmapDecayOps halves all heatmap counters every this many I/Os
	// (0 disables decay).
	HeatmapDecayOps int

	// MaxRetries bounds retries of transient device errors per device
	// operation. Zero derives the default (3); negative disables
	// retrying entirely.
	MaxRetries int

	// HedgeDeadline is the per-read deadline on SSD reference fetches:
	// when a foreground slot read's device service time exceeds it, the
	// controller issues a hedge read against the slot's CRC-verified HDD
	// home backup and serves whichever copy completes first — the slow
	// request is cancelled, not waited out. A healthy SSD read is tens
	// of microseconds, so the default (2 ms) only fires under fail-slow
	// conditions (GC stalls, brownout, freeze). Zero derives the
	// default; negative disables hedging and quarantine bypass.
	HedgeDeadline sim.Duration
	// OpDeadline bounds the total time (attempts plus backoff) one
	// device operation may accumulate in the retry loop before the
	// controller gives up instead of backing off again. Zero derives
	// the default (50 ms — above any healthy retry sequence); negative
	// disables the bound.
	OpDeadline sim.Duration
}

// NewDefaultConfig returns the prototype constants from the paper for a
// virtual disk of the given size, with SSD and RAM sized by the caller.
func NewDefaultConfig(virtualBlocks, ssdBlocks, deltaRAMBytes, dataRAMBytes int64) Config {
	return Config{
		VirtualBlocks:   virtualBlocks,
		SSDBlocks:       ssdBlocks,
		DeltaRAMBytes:   deltaRAMBytes,
		DataRAMBytes:    dataRAMBytes,
		ScanPeriod:      2000,
		ScanWindow:      4000,
		MaxSigDistance:  4,
		DeltaThreshold:  2048,
		SegmentSize:     64,
		LogBlocks:       16384, // 64 MB log region
		FlushDirtyBytes: 1 << 20,
		FlushPeriodOps:  4096,
		VMImageBlocks:   0,
		HeatmapDecayOps: 1 << 20,
	}
}

// validate normalizes cfg and reports configuration errors.
func (c *Config) validate() error {
	if c.VirtualBlocks <= 0 {
		return fmt.Errorf("core: VirtualBlocks must be positive")
	}
	if c.SSDBlocks <= 0 {
		return fmt.Errorf("core: SSDBlocks must be positive")
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 64
	}
	if c.DeltaThreshold <= 0 {
		c.DeltaThreshold = 2048
	}
	if c.DeltaThreshold > blockdev.BlockSize {
		return fmt.Errorf("core: DeltaThreshold %d exceeds block size", c.DeltaThreshold)
	}
	if c.ScanPeriod <= 0 {
		c.ScanPeriod = 2000
	}
	if c.ScanWindow <= 0 {
		c.ScanWindow = 4000
	}
	if c.MaxSigDistance < 0 {
		c.MaxSigDistance = 0
	}
	if c.LogBlocks < 8 {
		c.LogBlocks = 8
	}
	if c.MetadataBlocks <= 0 {
		// Default: enough metadata to cover the data RAM, the delta RAM
		// at average delta occupancy, and the reference store.
		est := c.DataRAMBytes/blockdev.BlockSize + c.DeltaRAMBytes/256 + c.SSDBlocks
		if est < 1024 {
			est = 1024
		}
		c.MetadataBlocks = int(est)
	}
	if c.FlushDirtyBytes <= 0 {
		c.FlushDirtyBytes = 1 << 20
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.HedgeDeadline == 0 {
		c.HedgeDeadline = 2 * sim.Millisecond
	}
	if c.OpDeadline == 0 {
		c.OpDeadline = 50 * sim.Millisecond
	}
	return nil
}
