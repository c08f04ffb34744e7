// Package crashtest is the crash-point recovery harness for the I-CASH
// controller. Its sweeps (the package tests, and the block service's)
// drive a deterministic workload against controllers whose HDDs sit
// behind a fault.Device, cut power at a chosen write (optionally
// tearing that write mid-block), and hand the surviving media to
// PowerOn, which recovers it and checks the array against the
// spec.Disk that shadowed the run: a recovered block may hold only a
// value written since its last acknowledged flush.
package crashtest

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/sim"
	"icash/internal/spec"
)

// Media is one shard's devices as they survived a power cut.
type Media struct{ SSD, HDD blockdev.Device }

// PowerOn models power-on after a cut: RAM is gone, the media (torn
// block included) survives, and d takes the same cut (spec.Disk.Crash).
// It recovers one controller per shard's media (core.Recover checks its
// invariants), audits each journal, and reads LBAs [0, lbas) of the
// composed array back against d. It returns the recovered array.
func PowerOn(cfg core.Config, media []Media, lbas int64, d *spec.Disk) (*core.ShardedController, error) {
	d.Crash()
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant(clock)
	shards := make([]*core.Controller, len(media))
	for i, m := range media {
		rc, err := core.Recover(cfg, m.SSD, m.HDD, clock, cpu) // checks invariants too
		if err != nil {
			return nil, fmt.Errorf("shard %d: recover: %w", i, err)
		}
		// Structural audit of the media itself: no reader-visible record
		// may ride an incomplete transaction, and the incomplete
		// transactions left on disk must be exactly the ones recovery
		// reported discarding — a discrepancy either way means a batch
		// was partially applied.
		incomplete, err := rc.AuditJournal()
		if err != nil {
			return nil, fmt.Errorf("shard %d: post-recovery journal audit: %w", i, err)
		}
		if int64(incomplete) != rc.Stats.TxnsDiscardedOnReplay {
			return nil, fmt.Errorf("shard %d: journal audit: %d incomplete transactions on disk, recovery discarded %d",
				i, incomplete, rc.Stats.TxnsDiscardedOnReplay)
		}
		shards[i] = rc
	}
	sc, err := core.NewSharded(shards)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < lbas; lba++ {
		if _, err := sc.ReadBlock(lba, buf); err != nil {
			return nil, fmt.Errorf("read-back lba %d: %w", lba, err)
		}
		if err := d.Check(lba, buf); err != nil {
			return nil, err
		}
	}
	return sc, nil
}
