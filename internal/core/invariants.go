package core

import (
	"fmt"
	"slices"

	"icash/internal/blockdev"
)

// CheckInvariants validates the controller's cross-structure
// consistency. Tests call it after randomized operation sequences; it
// is not part of any hot path.
//
// Checked relations:
//   - the LRU list and the LBA table contain exactly the same blocks,
//     in strictly descending stamp order;
//   - the data-resident sublist is the LRU filtered on dataRAM != nil
//     (same nodes, same order, no links on non-members) and its length
//     times the block size is the data budget's occupancy;
//   - every resident data block decodes: a whole pooled block, or a
//     well-formed patch under the limit, against a basis block, in a
//     buffer whose capacity is some patch's length;
//   - the write-through sublist is the LRU filtered on slotRef != nil
//     && kind == Independent (same order, each member owning its slot
//     through refSlot.wt, no links and no owner on any other slot);
//   - the unattached count is the number of LRU blocks with no slot;
//   - slot reference counts equal the number of attached blocks, and
//     every live slot is the slot table's entry at its index;
//   - slotOrder lists every live slot exactly once, and holds a dead
//     entry only while slotsStale says so;
//   - a probe index marked fresh equals one rebuilt from the probe
//     prefix of slotOrder (which then holds no dead entry);
//   - free, quarantined and live slots partition the SSD exactly;
//   - the delta budget equals the segment-rounded sum of resident
//     deltas;
//   - the running counts (free and retired log blocks, live slots,
//     poisoned LBAs) equal a frontier lap's and a table scan's;
//   - every LBA's newest-record entry names a record its log block still
//     lists, and the durable counts match the per-block record census;
//   - log blocks and transactions point at each other exactly, and the
//     per-transaction live counts match the newest-record census.
func (c *Controller) CheckInvariants() error {
	// LRU <-> LBA table agreement. A block listed twice breaks the stamp
	// order; two blocks for one LBA cannot both be the table's.
	n := 0
	resident := 0
	var lastStamp uint64
	lastResident, nextResident := (*vblock)(nil), c.lru.dhead
	writeThroughs, unattached := 0, 0
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
			if err := c.checkData(v); err != nil {
				return err
			}
		} else if v.dprev != nil || v.dnext != nil {
			return fmt.Errorf("core: non-resident block %d linked into the data sublist", v.lba)
		}
		if v.slotRef == nil {
			unattached++
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
		if c.lbas[v.lba].v != v {
			return fmt.Errorf("core: LRU block %d not in the LBA table", v.lba)
		}
		n++
	}
	if n != c.lru.len() {
		return fmt.Errorf("core: LRU has %d blocks, count says %d", n, c.lru.len())
	}
	if nextResident != nil || c.lru.dtail != lastResident {
		return fmt.Errorf("core: data sublist runs past the LRU's %d resident blocks", resident)
	}
	if nextWT != nil || c.lru.wtail != lastWT {
		return fmt.Errorf("core: write-through sublist runs past the LRU's %d write-through blocks", writeThroughs)
	}
	if unattached != c.lru.unattached {
		return fmt.Errorf("core: unattached count says %d, the LRU holds %d blocks with no slot", c.lru.unattached, unattached)
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
			if c.slotTab[v.slotRef.index] != v.slotRef {
				return fmt.Errorf("core: lba %d attached to unregistered slot %d",
					v.lba, v.slotRef.index)
			}
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
		if s.refcnt > 0 && c.slotTab[s.index] != s {
			return fmt.Errorf("core: slotOrder entry for slot %d is not the live slot", s.index)
		}
	}
	if x := c.probe; x != nil && x.fresh {
		if c.slotsStale {
			return fmt.Errorf("core: probe index fresh across a slot death")
		}
		var want probeIndex
		want.build(c.slotOrder[:min(len(c.slotOrder), maxSlotProbe)])
		if *x != want {
			return fmt.Errorf("core: probe index fresh but not the index of the probe prefix")
		}
	}
	used := make(map[int64]string)
	for idx, s := range c.slotTab {
		if s == nil {
			continue
		}
		used[int64(idx)] = "live"
		if s.index != int64(idx) {
			return fmt.Errorf("core: slot table entry %d holds slot %d", idx, s.index)
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
		if s.wt != nil && (s.wt.slotRef != s || c.lbas[s.wt.lba].v != s.wt) {
			return fmt.Errorf("core: slot %d owned by lba %d, which is not attached to it", s.index, s.wt.lba)
		}
		if s.wt == nil && (s.wprev != nil || s.wnext != nil) {
			return fmt.Errorf("core: slot %d linked into the write-through sublist without an owner", s.index)
		}
		if !listed[s] {
			return fmt.Errorf("core: live slot %d missing from slotOrder", s.index)
		}
	}
	if len(used) != c.nLiveSlots {
		return fmt.Errorf("core: live slot count says %d, the slot table holds %d", c.nLiveSlots, len(used))
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

	// Log blocks: a retired one is tracked by nothing, a tracked one
	// and its transaction point at each other; the record census.
	census := make([]int32, len(c.lbas))
	retired := int64(0)
	for b := range c.logBlocks {
		lb := &c.logBlocks[b]
		if lb.bad {
			retired++
		}
		if (lb.bad || lb.txn == nil) && len(lb.metas) > 0 {
			return fmt.Errorf("core: retired or untracked log block %d still lists records", b)
		}
		if lb.txn == nil {
			continue
		}
		if lb.bad || c.txns[lb.txn.id] != lb.txn || !slices.Contains(lb.txn.blocks, int64(b)) {
			return fmt.Errorf("core: log block %d (retired=%v) claims txn %d, which does not list it", b, lb.bad, lb.txn.id)
		}
		for i := range lb.metas {
			m := &lb.metas[i]
			if m.kind != entryDelta && m.kind != entryPointer && m.kind != entryTombstone {
				return fmt.Errorf("core: log block %d has record of kind %d", b, m.kind)
			}
			if !c.validLBA(m.lba) {
				return fmt.Errorf("core: log block %d has a record for lba %d", b, m.lba)
			}
			census[m.lba]++
		}
	}
	if retired != c.retiredLogBlocks {
		return fmt.Errorf("core: retired log block count says %d, the table holds %d", c.retiredLogBlocks, retired)
	}
	for id, t := range c.txns {
		if t.id != id || len(t.blocks) == 0 {
			return fmt.Errorf("core: txn %d tracked as %d with %d blocks", id, t.id, len(t.blocks))
		}
		for _, b := range t.blocks {
			if owner := c.logBlocks[b].txn; owner != t {
				return fmt.Errorf("core: txn %d lists block %d, which another owns", id, b)
			}
		}
	}

	// LBA table: tracked blocks, poison and checksum flags, durable
	// counts against the census, and every newest record present in its
	// block — which, counted per transaction, are the live counts that
	// gate block reuse.
	tracked, poisoned := 0, 0
	txnCensus := make(map[*txn]int)
	for i := range c.lbas {
		l, lba := &c.lbas[i], int64(i)
		if l.v != nil {
			tracked++
		}
		if l.poison {
			poisoned++
		}
		if !l.sumOK && l.sum != 0 {
			return fmt.Errorf("core: lba %d keeps sum %08x while untracked", lba, l.sum)
		}
		if census[i] != l.durable {
			return fmt.Errorf("core: lba %d durable count %d, census says %d", lba, l.durable, census[i])
		}
		rec := l.rec
		if rec.kind == entryNone {
			continue
		}
		lb := &c.logBlocks[rec.block]
		if !slices.ContainsFunc(lb.metas, func(m entryMeta) bool {
			return m.lba == lba && m.seq == rec.seq && m.kind == rec.kind
		}) {
			return fmt.Errorf("core: newest record of lba %d missing (block %d seq %d)", lba, rec.block, rec.seq)
		}
		txnCensus[lb.txn]++
	}
	if tracked != n {
		return fmt.Errorf("core: LRU has %d blocks, the LBA table tracks %d", n, tracked)
	}
	if poisoned != c.nPoisoned {
		return fmt.Errorf("core: poisoned count says %d, the LBA table holds %d", c.nPoisoned, poisoned)
	}
	for id, t := range c.txns {
		if txnCensus[t] != t.live {
			return fmt.Errorf("core: txn %d live count %d, census says %d", id, t.live, txnCensus[t])
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

// checkData reports a resident data block that does not decode (see
// ramdata.go for the two forms).
func (c *Controller) checkData(v *vblock) error {
	e := v.dataRAM
	switch {
	case len(e) == blockdev.BlockSize:
		if cap(e) != blockdev.BlockSize {
			return fmt.Errorf("core: lba %d: raw data block has capacity %d", v.lba, cap(e))
		}
	case c.basisOf(v.lba) == nil:
		return fmt.Errorf("core: lba %d: %d-byte data block with no basis block to patch", v.lba, len(e))
	case !blockdev.ValidPatch(e) || cap(e) >= blockdev.PatchLimit || cap(e)%blockdev.PatchChunk != len(e)%blockdev.PatchChunk:
		return fmt.Errorf("core: lba %d: data block is no patch (%d bytes, capacity %d)", v.lba, len(e), cap(e))
	}
	return nil
}
