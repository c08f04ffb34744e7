// Package icash is a library implementation of I-CASH — the
// Intelligently Coupled Array of SSD and HDD from Ren & Yang, HPCA 2011
// — together with the simulated storage substrate and baseline systems
// used to reproduce the paper's evaluation.
//
// The core idea: instead of stacking an SSD cache on top of a disk,
// couple the two horizontally. The SSD stores seldom-changed, mostly
// read *reference blocks*; the HDD stores a sequential log of content
// *deltas* between active blocks and their references. Reads combine an
// SSD reference with a (usually RAM-resident) delta; writes are
// delta-compressed into RAM and committed in batches by one sequential
// log write. Random SSD writes — slow and wearing — are almost
// eliminated.
//
// # Quick start
//
//	arr, _ := icash.New(icash.Config{
//	    DataBlocks: 1 << 16, // 256 MB virtual disk
//	    SSDBlocks:  1 << 13, // 32 MB reference store
//	})
//	buf := make([]byte, icash.BlockSize)
//	copy(buf, []byte("hello"))
//	arr.Write(42, buf)
//	arr.Read(42, buf)
//	fmt.Println(arr.Stats().WriteDelta, "writes stored as deltas")
//
// Everything runs on a simulated clock: Read and Write return the
// simulated service latency of the request, and SimulatedTime reports
// total elapsed simulated time, so experiments are deterministic and
// independent of the host.
//
// The full evaluation harness (five storage systems, the paper's eight
// benchmark profiles, every figure and table of §5) lives in
// internal/harness and is driven by cmd/icash-bench.
package icash

import (
	"fmt"
	"time"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/hdd"
	"icash/internal/sim"
	"icash/internal/ssd"
)

// BlockSize is the unit of all I/O: 4 KB, the paper's cache-block size.
const BlockSize = blockdev.BlockSize

// Config sizes an Array. Zero fields take sensible defaults.
type Config struct {
	// DataBlocks is the virtual disk capacity in 4 KB blocks. Required.
	DataBlocks int64
	// SSDBlocks is the reference store size in blocks. Default:
	// DataBlocks/10 (the paper's ~10% provisioning).
	SSDBlocks int64
	// DeltaRAMBytes is the controller RAM devoted to delta segments.
	// Default: 1/32 of the data size.
	DeltaRAMBytes int64
	// DataRAMBytes is the controller RAM for cached full blocks.
	// Default: equal to DeltaRAMBytes.
	DataRAMBytes int64
	// LogBlocks is the HDD delta-log region size. Default: DataBlocks/8.
	LogBlocks int64
	// VMImageBlocks partitions the disk into equal VM images for
	// first-load similarity pairing (0 disables).
	VMImageBlocks int64
	// Tune overrides individual controller parameters after defaults
	// are applied (optional).
	Tune func(*core.Config)
}

// Array is an I-CASH storage element: one simulated SSD and one
// simulated HDD coupled by the controller. It is not safe for
// concurrent use.
type Array struct {
	ctrl  *core.Controller
	ssd   *ssd.Device
	hdd   *hdd.Device
	clock *sim.Clock
	cpu   *cpumodel.Accountant
}

// New builds an Array from cfg.
func New(cfg Config) (*Array, error) {
	if cfg.DataBlocks <= 0 {
		return nil, fmt.Errorf("icash: DataBlocks must be positive")
	}
	if cfg.SSDBlocks <= 0 {
		cfg.SSDBlocks = cfg.DataBlocks / 10
		if cfg.SSDBlocks < 64 {
			cfg.SSDBlocks = 64
		}
	}
	if cfg.DeltaRAMBytes <= 0 {
		cfg.DeltaRAMBytes = cfg.DataBlocks * BlockSize / 32
		if cfg.DeltaRAMBytes < 256<<10 {
			cfg.DeltaRAMBytes = 256 << 10
		}
	}
	if cfg.DataRAMBytes <= 0 {
		cfg.DataRAMBytes = cfg.DeltaRAMBytes
	}
	if cfg.LogBlocks <= 0 {
		cfg.LogBlocks = cfg.DataBlocks / 8
		if cfg.LogBlocks < 512 {
			cfg.LogBlocks = 512
		}
	}
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	ssdDev := ssd.New(ssd.DefaultConfig(cfg.SSDBlocks))
	hddDev := hdd.New(hdd.DefaultConfig(cfg.DataBlocks + cfg.LogBlocks))

	ccfg := core.NewDefaultConfig(cfg.DataBlocks, cfg.SSDBlocks, cfg.DeltaRAMBytes, cfg.DataRAMBytes)
	ccfg.LogBlocks = cfg.LogBlocks
	ccfg.VMImageBlocks = cfg.VMImageBlocks
	ccfg.MetadataBlocks = int(cfg.DataBlocks) + 64
	if cfg.Tune != nil {
		cfg.Tune(&ccfg)
	}
	ctrl, err := core.New(ccfg, ssdDev, hddDev, clock, cpu)
	if err != nil {
		return nil, err
	}
	return &Array{ctrl: ctrl, ssd: ssdDev, hdd: hddDev, clock: clock, cpu: cpu}, nil
}

// Blocks returns the virtual disk capacity in blocks.
func (a *Array) Blocks() int64 { return a.ctrl.Blocks() }

// Read reads block lba into buf (len(buf) == BlockSize), advancing the
// simulated clock, and returns the simulated service latency.
func (a *Array) Read(lba int64, buf []byte) (time.Duration, error) {
	d, err := a.ctrl.ReadBlock(lba, buf)
	if err != nil {
		return 0, err
	}
	a.clock.Advance(d)
	return time.Duration(d), nil
}

// Write writes buf (len(buf) == BlockSize) to block lba, advancing the
// simulated clock, and returns the simulated service latency.
func (a *Array) Write(lba int64, buf []byte) (time.Duration, error) {
	d, err := a.ctrl.WriteBlock(lba, buf)
	if err != nil {
		return 0, err
	}
	a.clock.Advance(d)
	return time.Duration(d), nil
}

// Flush establishes a consistency point: all dirty state reaches
// durable media. After Flush, Recover loses nothing.
func (a *Array) Flush() error { return a.ctrl.Flush() }

// Preload installs initial content at lba (the data set "already on
// disk") without affecting timing or statistics.
func (a *Array) Preload(lba int64, content []byte) error {
	return a.ctrl.Preload(lba, content)
}

// Stats returns a snapshot of controller statistics.
func (a *Array) Stats() core.Stats { return a.ctrl.Stats }

// SSDStats returns a snapshot of SSD device statistics (host writes,
// erases, wear — the paper's Table 6 metrics).
func (a *Array) SSDStats() ssd.Stats { return a.ssd.Stats }

// HDDStats returns a snapshot of HDD device statistics.
func (a *Array) HDDStats() hdd.Stats { return a.hdd.Stats }

// KindCounts reports the block population by kind (reference /
// associate / independent), the paper's §5.1 block-mix metric.
func (a *Array) KindCounts() core.KindCounts { return a.ctrl.KindCounts() }

// SimulatedTime returns total elapsed simulated time.
func (a *Array) SimulatedTime() time.Duration { return time.Duration(a.clock.Now()) }

// Controller exposes the underlying controller for advanced inspection.
func (a *Array) Controller() *core.Controller { return a.ctrl }

// Degraded reports whether the array has fallen back to HDD-only
// operation after losing its SSD.
func (a *Array) Degraded() bool { return a.ctrl.Degraded() }

// FailSSD simulates losing the whole SSD device: RAM-resident content
// is salvaged to the HDD home region where possible, everything else is
// accounted as DegradedDataLoss, and the array continues serving
// requests in HDD-only degraded mode.
func (a *Array) FailSSD() { a.ctrl.DegradeSSD() }

// InjectHDDLatentError plants a latent sector error at an HDD LBA:
// reads of that sector fail until a write remaps it. Self-healing
// experiments use this to exercise the controller's retry, scrub and
// fallback paths.
func (a *Array) InjectHDDLatentError(lba int64) { a.hdd.InjectLatentError(lba) }

// Crash simulates a power failure: all RAM state is lost, and a new
// Array is rebuilt from the surviving SSD and HDD contents by replaying
// the delta log (paper §3.3). The original Array must not be used
// afterwards.
func (a *Array) Crash() (*Array, error) {
	cfg := a.ctrl.Config()
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	ctrl, err := core.Recover(cfg, a.ssd, a.hdd, clock, cpu)
	if err != nil {
		return nil, err
	}
	return &Array{ctrl: ctrl, ssd: a.ssd, hdd: a.hdd, clock: clock, cpu: cpu}, nil
}
