package core

import (
	"fmt"

	"icash/internal/blockdev"
)

// CheckInvariants validates the controller's cross-structure
// consistency. Tests call it after randomized operation sequences; it
// is not part of any hot path.
//
// Checked relations:
//   - the LRU list and the block map contain exactly the same blocks,
//     in strictly descending stamp order;
//   - the data-resident sublist is the LRU filtered on dataRAM != nil
//     (same nodes, same order, no links on non-members) and its length
//     times the block size is the data budget's occupancy;
//   - the write-through sublist is the LRU filtered on slotRef != nil
//     && kind == Independent (same order, each member owning its slot
//     through refSlot.wt, no links and no owner on any other slot);
//   - slot reference counts equal the number of attached blocks, and
//     every live slot is reachable from the slots map;
//   - slotOrder lists every live slot exactly once, and holds a dead
//     entry only while slotsStale says so;
//   - free, quarantined and live slots partition the SSD exactly;
//   - the delta budget equals the segment-rounded sum of resident
//     deltas;
//   - the running free-log-block count equals a frontier lap's;
//   - logIndex entries point at blocks the cleaner still tracks
//     (logMeta), and perLba counts match the per-block record census.
func (c *Controller) CheckInvariants() error {
	// LRU <-> map agreement.
	seen := make(map[int64]bool, c.lru.len())
	n := 0
	resident := 0
	var lastStamp uint64
	lastResident, nextResident := (*vblock)(nil), c.lru.dhead
	writeThroughs := 0
	lastWT, nextWT := (*refSlot)(nil), c.lru.whead
	for v := c.lru.head; v != nil; v = v.next {
		if v.dead {
			return fmt.Errorf("core: dead block %d still in LRU", v.lba)
		}
		if v.stamp == 0 || v.stamp > c.lru.seq || (n > 0 && v.stamp >= lastStamp) {
			return fmt.Errorf("core: LRU block %d stamp %d after stamp %d (last issued %d)",
				v.lba, v.stamp, lastStamp, c.lru.seq)
		}
		lastStamp = v.stamp
		if v.dataRAM != nil {
			if v != nextResident || v.dprev != lastResident {
				return fmt.Errorf("core: resident block %d out of place in the data sublist", v.lba)
			}
			lastResident, nextResident = v, v.dnext
			resident++
		} else if v.dprev != nil || v.dnext != nil {
			return fmt.Errorf("core: non-resident block %d linked into the data sublist", v.lba)
		}
		if s := v.slotRef; s != nil && v.kind == Independent {
			if s != nextWT || s.wt != v || s.wprev != lastWT {
				return fmt.Errorf("core: write-through block %d (slot %d) out of place in the write-through sublist", v.lba, s.index)
			}
			lastWT, nextWT = s, s.wnext
			writeThroughs++
		} else if s != nil && s.wt == v {
			return fmt.Errorf("core: %v block %d owns slot %d in the write-through sublist", v.kind, v.lba, s.index)
		}
		if seen[v.lba] {
			return fmt.Errorf("core: lba %d appears twice in LRU", v.lba)
		}
		seen[v.lba] = true
		if c.blocks[v.lba] != v {
			return fmt.Errorf("core: LRU block %d not in map", v.lba)
		}
		n++
	}
	if n != len(c.blocks) || n != c.lru.len() {
		return fmt.Errorf("core: LRU has %d blocks, map has %d, count says %d",
			n, len(c.blocks), c.lru.len())
	}
	if nextResident != nil || c.lru.dtail != lastResident {
		return fmt.Errorf("core: data sublist runs past the LRU's %d resident blocks", resident)
	}
	if nextWT != nil || c.lru.wtail != lastWT {
		return fmt.Errorf("core: write-through sublist runs past the LRU's %d write-through blocks", writeThroughs)
	}
	if used := int64(resident) * blockdev.BlockSize; used != c.dataBudget.Used() {
		return fmt.Errorf("core: data budget says %d, %d sublist blocks make %d",
			c.dataBudget.Used(), resident, used)
	}

	// Slot refcounts and partition of SSD slots.
	refcnt := make(map[*refSlot]int)
	for v := c.lru.head; v != nil; v = v.next {
		if v.slotRef != nil {
			refcnt[v.slotRef]++
			if c.slots[v.slotRef.index] != v.slotRef {
				return fmt.Errorf("core: lba %d attached to unregistered slot %d",
					v.lba, v.slotRef.index)
			}
		}
	}
	for idx, s := range c.slots {
		if s.index != idx {
			return fmt.Errorf("core: slot map key %d holds slot %d", idx, s.index)
		}
		if refcnt[s] != s.refcnt {
			return fmt.Errorf("core: slot %d refcnt=%d, actual attached=%d",
				s.index, s.refcnt, refcnt[s])
		}
		if s.refcnt <= 0 {
			return fmt.Errorf("core: live slot %d with refcnt %d", s.index, s.refcnt)
		}
		// The LRU walk above placed every owned slot in the sublist; an
		// owner it did not reach, or links without one, are strays.
		if s.wt != nil && (s.wt.slotRef != s || c.blocks[s.wt.lba] != s.wt) {
			return fmt.Errorf("core: slot %d owned by lba %d, which is not attached to it", s.index, s.wt.lba)
		}
		if s.wt == nil && (s.wprev != nil || s.wnext != nil) {
			return fmt.Errorf("core: slot %d linked into the write-through sublist without an owner", s.index)
		}
	}
	// slotOrder: every live slot once, dead entries only until the
	// compaction slotsStale has asked for.
	listed := make(map[*refSlot]bool, len(c.slotOrder))
	for _, s := range c.slotOrder {
		if listed[s] {
			return fmt.Errorf("core: slot %d listed twice in slotOrder", s.index)
		}
		listed[s] = true
		if !s.listed {
			return fmt.Errorf("core: slot %d in slotOrder but not marked listed", s.index)
		}
		if s.refcnt <= 0 && !c.slotsStale {
			return fmt.Errorf("core: dead slot %d in slotOrder with no compaction pending", s.index)
		}
		if s.refcnt > 0 && c.slots[s.index] != s {
			return fmt.Errorf("core: slotOrder entry for slot %d is not the live slot", s.index)
		}
	}
	for _, s := range c.slots {
		if !listed[s] {
			return fmt.Errorf("core: live slot %d missing from slotOrder", s.index)
		}
	}
	used := make(map[int64]string)
	for idx := range c.slots {
		used[idx] = "live"
	}
	for _, idx := range c.freeSlots {
		if prev, ok := used[idx]; ok {
			return fmt.Errorf("core: slot %d both free and %s", idx, prev)
		}
		used[idx] = "free"
	}
	for _, idx := range c.quarantine {
		if prev, ok := used[idx]; ok {
			return fmt.Errorf("core: slot %d both quarantined and %s", idx, prev)
		}
		used[idx] = "quarantined"
	}
	for _, idx := range c.retiredSlots {
		if prev, ok := used[idx]; ok {
			return fmt.Errorf("core: slot %d both retired and %s", idx, prev)
		}
		used[idx] = "retired"
	}
	if int64(len(used)) != c.cfg.SSDBlocks {
		return fmt.Errorf("core: %d slots accounted, SSD has %d", len(used), c.cfg.SSDBlocks)
	}

	// The running free-log-block count against a full frontier lap.
	if lap := c.lapFreeLogBlocks(); lap != c.freeLogBlocks {
		return fmt.Errorf("core: free log block count says %d, a frontier lap finds %d", c.freeLogBlocks, lap)
	}

	// Retired log blocks must not be tracked by the cleaner.
	for b := range c.badLogBlocks {
		if len(c.logMeta[b]) > 0 {
			return fmt.Errorf("core: retired log block %d still tracked by the cleaner", b)
		}
	}

	// Delta RAM budget (the data budget is checked with the sublist).
	var deltaBytes int64
	for v := c.lru.head; v != nil; v = v.next {
		if v.deltaRAM != nil {
			deltaBytes += c.segBytes(len(v.deltaRAM))
			// A retained delta is an exact-size private copy: slack
			// here means a shared or over-sized encode buffer leaked in.
			if cap(v.deltaRAM) != len(v.deltaRAM) {
				return fmt.Errorf("core: lba %d retains a %d-byte delta in a %d-byte buffer",
					v.lba, len(v.deltaRAM), cap(v.deltaRAM))
			}
		}
	}
	if deltaBytes != c.deltaBudget.Used() {
		return fmt.Errorf("core: delta budget says %d, resident deltas sum to %d",
			c.deltaBudget.Used(), deltaBytes)
	}

	// Log index vs per-block metadata census.
	census := make(map[int64]int)
	for block, metas := range c.logMeta {
		for i := range metas {
			census[metas[i].lba]++
			if metas[i].kind != entryDelta && metas[i].kind != entryPointer && metas[i].kind != entryTombstone {
				return fmt.Errorf("core: log block %d has record of kind %d", block, metas[i].kind)
			}
		}
	}
	for lba, cnt := range c.perLba {
		if census[lba] != cnt {
			return fmt.Errorf("core: perLba[%d]=%d, census says %d", lba, cnt, census[lba])
		}
	}
	for lba, cnt := range census {
		if c.perLba[lba] != cnt {
			return fmt.Errorf("core: census[%d]=%d, perLba says %d", lba, cnt, c.perLba[lba])
		}
	}
	for lba, rec := range c.logIndex {
		metas := c.logMeta[rec.block]
		found := false
		for i := range metas {
			if metas[i].lba == lba && metas[i].seq == rec.seq && metas[i].kind == rec.kind {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: logIndex[%d] points at missing record (block %d seq %d)",
				lba, rec.block, rec.seq)
		}
	}

	// Transaction bookkeeping: tracked blocks and transactions point at
	// each other exactly, and the per-transaction live counts (which
	// gate block reuse) match the live-record census.
	for b := range c.logMeta {
		if _, ok := c.blockTxn[b]; !ok {
			return fmt.Errorf("core: log block %d tracked without a transaction", b)
		}
	}
	for b, t := range c.blockTxn {
		if c.badLogBlocks[b] {
			return fmt.Errorf("core: retired log block %d still in txn %d", b, t)
		}
		found := false
		for _, bb := range c.txnBlocks[t] {
			if bb == b {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: log block %d claims txn %d, which does not list it", b, t)
		}
	}
	for t, blocks := range c.txnBlocks {
		if len(blocks) == 0 {
			return fmt.Errorf("core: txn %d tracked with no blocks", t)
		}
		if _, ok := c.txnLive[t]; !ok {
			return fmt.Errorf("core: txn %d has blocks but no live count", t)
		}
		for _, b := range blocks {
			if owner, ok := c.blockTxn[b]; !ok || owner != t {
				return fmt.Errorf("core: txn %d lists block %d owned by txn %d", t, b, owner)
			}
		}
	}
	for t := range c.txnLive {
		if _, ok := c.txnBlocks[t]; !ok {
			return fmt.Errorf("core: txn %d has a live count but no blocks", t)
		}
	}
	txnCensus := make(map[uint64]int)
	for _, rec := range c.logIndex {
		t, ok := c.blockTxn[rec.block]
		if !ok {
			return fmt.Errorf("core: live record in block %d outside any transaction", rec.block)
		}
		txnCensus[t]++
	}
	for t, live := range c.txnLive {
		if txnCensus[t] != live {
			return fmt.Errorf("core: txnLive[%d]=%d, census says %d", t, live, txnCensus[t])
		}
	}

	// Dirty-queue membership flags.
	for _, v := range c.dirtyQ {
		if v.inDirty && v.dead {
			return fmt.Errorf("core: dead block %d marked dirty", v.lba)
		}
	}
	return nil
}
