package core

import (
	"fmt"

	"icash/internal/blockdev"
)

// AuditJournal re-reads the whole delta-log region from the HDD and
// cross-checks the on-disk journal against the controller's in-memory
// index. It is the durability oracle's structural half: beyond "the
// right bytes came back", it proves the transactional invariants the
// group-commit design promises actually hold on the media.
//
// Checked relations:
//   - every LBA's newest-record entry points into an on-disk transaction
//     that is complete (all parts present, CRC-valid, commit marker
//     seen) — atomicity: no reader-visible record can depend on a
//     partially landed batch;
//   - the disk block backing a live record carries the transaction id
//     the controller's reuse bookkeeping (logBlock.txn) has for it, in the
//     current epoch or an earlier one;
//   - the record itself (lba, seq, kind) is present in that decoded
//     block — the index never points at bytes that are not there.
//
// It returns the number of incomplete transactions left on the media.
// Immediately after Recover, before any new commit reuses their
// blocks, that count equals Stats.TxnsDiscardedOnReplay; the crash
// harness asserts exactly that.
func (c *Controller) AuditJournal() (int, error) {
	asm := newJournalAsm()
	buf := make([]byte, blockdev.BlockSize)
	for b := int64(0); b < c.cfg.LogBlocks; b++ {
		if c.logBlocks[b].bad {
			continue
		}
		if _, err := c.hddRead(c.cfg.VirtualBlocks+b, buf); err != nil {
			return 0, fmt.Errorf("core: audit read log block %d: %w", b, err)
		}
		asm.addBlock(b, buf)
	}

	incomplete := 0
	for _, t := range asm.txns {
		if !t.complete() {
			incomplete++
		}
	}

	for lba := range c.lbas {
		rec := c.lbas[lba].rec
		if rec.kind == entryNone {
			continue
		}
		sb, ok := asm.blocks[rec.block]
		if !ok {
			return incomplete, fmt.Errorf("core: audit: live record for lba %d in undecodable log block %d", lba, rec.block)
		}
		t := asm.txns[sb.hdr.txn]
		if t == nil || !t.complete() {
			return incomplete, fmt.Errorf("core: audit: live record for lba %d rides incomplete txn %d (block %d)",
				lba, sb.hdr.txn, rec.block)
		}
		owner := c.logBlocks[rec.block].txn
		if owner == nil {
			return incomplete, fmt.Errorf("core: audit: live record for lba %d in untracked log block %d", lba, rec.block)
		}
		if owner.id != sb.hdr.txn {
			return incomplete, fmt.Errorf("core: audit: log block %d holds txn %d on disk, controller tracks txn %d",
				rec.block, sb.hdr.txn, owner.id)
		}
		found := false
		for i := range sb.entries {
			e := &sb.entries[i]
			if e.lba == int64(lba) && e.seq == rec.seq && e.kind == rec.kind {
				found = true
				break
			}
		}
		if !found {
			return incomplete, fmt.Errorf("core: audit: record for lba %d (seq %d kind %d) absent from disk block %d",
				lba, rec.seq, rec.kind, rec.block)
		}
	}

	// Every transaction the reuse bookkeeping still tracks with live
	// records must be wholly on the media. The lowest-id violator is the
	// one reported, whatever the map order.
	var bad *txn
	for id, t := range c.txns {
		if at := asm.txns[id]; t.live > 0 && (at == nil || !at.complete()) && (bad == nil || id < bad.id) {
			bad = t
		}
	}
	if bad != nil {
		return incomplete, fmt.Errorf("core: audit: txn %d has %d live records but is not complete on disk", bad.id, bad.live)
	}
	return incomplete, nil
}
