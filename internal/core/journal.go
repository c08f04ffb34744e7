package core

import (
	"cmp"
	"fmt"
	"slices"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// Group-commit machinery (DESIGN.md §12). The delta log is written in
// transactions: the commit buffer (control queue + dirty-delta queue)
// is drained into batches, each batch packed into one or more
// consecutive commit-record parts and made durable as one sequential
// HDD burst before any of its entries becomes visible to readers or to
// setLogIndex. Block reuse is transaction-granular — a block may be
// overwritten only when its whole transaction has no live records — so
// every on-disk transaction is either wholly intact or wholly dead,
// and recovery can discard incomplete ones without losing anything
// that was ever acknowledged.

// logBlock is the controller's record of one block of the log region;
// Controller.logBlocks holds one per block.
type logBlock struct {
	// bad marks a block retired after a media failure; the commit
	// frontier skips it for good. A bad block is never tracked.
	bad bool
	// txn is the transaction whose commit-record part the block
	// carries, nil when the block is untracked (never written, or its
	// content destroyed or discarded).
	txn *txn
	// metas describes the records packed in that part, so the compactor
	// can decide liveness without reading dead blocks from disk. The
	// backing array is reused every time the block is overwritten.
	metas []entryMeta
}

// txn is the controller's record of one on-disk transaction that still
// owns log blocks.
type txn struct {
	id uint64
	// live counts the transaction's records that are the newest durable
	// one for their LBA. A log block may be overwritten only when its
	// whole transaction has none left: txn-granular reuse keeps every
	// on-disk transaction either wholly intact or wholly dead, which is
	// what makes all-or-nothing replay safe.
	live int
	// blocks lists the log blocks carrying the transaction's parts.
	blocks []int64
}

// txnPart is one planned commit-record part of a transaction.
type txnPart struct {
	lo, hi int // entries[lo:hi] packed into this part
	block  int64
}

// maxTxnBlocks bounds one transaction's footprint. Reuse is
// transaction-granular, so big transactions in a small log pin blocks
// too coarsely for the compactor to win; a sixteenth of the region
// keeps pinning fine-grained (tiny test logs degrade to single-block
// transactions, the old block-granular behavior) while real-sized logs
// still commit multi-block sequential bursts, capped at 64 blocks
// (256 KB of commit record).
func (c *Controller) maxTxnBlocks() int64 {
	n := c.cfg.LogBlocks / 16
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return n
}

// reserveLogBlocks is the compaction workspace (the LFS reserved-
// segment rule): batch commits never spend the last reserve blocks, so
// the compactor always has room to write a rescue transaction and can
// open space for the next batch.
func (c *Controller) reserveLogBlocks() int64 {
	n := c.cfg.LogBlocks / 4
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// logBlockFree reports whether log block b may be overwritten: healthy,
// and not part of a transaction that still has live records.
func (c *Controller) logBlockFree(b int64) bool {
	lb := &c.logBlocks[b]
	return !lb.bad && (lb.txn == nil || lb.txn.live == 0)
}

// logBlockAlloc walks the circular log from the frontier handing out
// overwritable blocks, each at most once per walk. It mutates nothing;
// the frontier advances only after a successful commit.
type logBlockAlloc struct {
	c     *Controller
	steps int64
}

func (c *Controller) newLogAlloc() logBlockAlloc { return logBlockAlloc{c: c} }

func (a *logBlockAlloc) take() (int64, bool) {
	for a.steps < a.c.cfg.LogBlocks {
		b := (a.c.logHead + a.steps) % a.c.cfg.LogBlocks
		a.steps++
		if a.c.logBlockFree(b) {
			return b, true
		}
	}
	return 0, false
}

// countFreeLogBlocks returns how many overwritable blocks one frontier
// lap would find. The commit and compaction loops ask between every
// step, so the answer is the running count freeLogBlocks, moved where a
// block's reusability changes: retireLogBlock and addLive. A block joins
// (newTxn) and leaves (forgetLogBlock) a transaction only while that
// transaction has no live records, which moves nothing. CheckInvariants
// recounts lap-wise.
func (c *Controller) countFreeLogBlocks() int64 { return c.freeLogBlocks }

// lapFreeLogBlocks is countFreeLogBlocks the slow way: one frontier lap.
func (c *Controller) lapFreeLogBlocks() int64 {
	a := c.newLogAlloc()
	n := int64(0)
	for {
		if _, ok := a.take(); !ok {
			return n
		}
		n++
	}
}

// retireLogBlock takes the untracked log block b out of circulation for
// good.
func (c *Controller) retireLogBlock(b int64) {
	if c.logBlockFree(b) {
		c.freeLogBlocks--
	}
	c.logBlocks[b].bad = true
	c.retiredLogBlocks++
	c.Stats.BadLogBlocks++
}

// addLive adjusts t's live-record count (t is nil for a record in an
// untracked block, which CheckInvariants rules out). Crossing zero
// flips the reusability of every block t owns.
func (c *Controller) addLive(t *txn, d int) {
	if t == nil {
		return
	}
	was := t.live == 0
	t.live += d
	switch is := t.live == 0; {
	case is && !was:
		c.freeLogBlocks += int64(len(t.blocks))
	case was && !is:
		c.freeLogBlocks -= int64(len(t.blocks))
	}
}

// newTxn registers transaction id, owning no log blocks yet (see own)
// and with no live records. The record and its block list are a
// forgotten transaction's when there is one, so the steady-state commit
// path (one new transaction per flush) stays allocation-free.
func (c *Controller) newTxn(id uint64) *txn {
	var t *txn
	if n := len(c.spareTxns); n > 0 {
		t = c.spareTxns[n-1]
		c.spareTxns = c.spareTxns[:n-1]
	} else {
		t = new(txn)
	}
	*t = txn{id: id, blocks: t.blocks[:0]}
	c.txns[id] = t
	return t
}

// own makes log block b one of t's.
func (c *Controller) own(t *txn, b int64) {
	c.logBlocks[b].txn = t
	t.blocks = append(t.blocks, b)
}

// forgetLogBlock drops the RAM bookkeeping of a log block whose on-disk
// content has been destroyed (overwritten or failed): per-LBA census,
// packed-record metadata, and transaction membership. The caller must
// ensure no live record still points at the block — guaranteed for
// blocks obtained through logBlockFree. Called only after the
// destroying write actually happened: forgetting earlier would let a
// failed commit resurrect stale records at recovery (the on-disk old
// transaction would still be complete while RAM stopped counting it).
func (c *Controller) forgetLogBlock(b int64) {
	lb := &c.logBlocks[b]
	for i := range lb.metas {
		c.lbas[lb.metas[i].lba].durable--
	}
	lb.metas = lb.metas[:0]
	t := lb.txn
	if t == nil {
		return
	}
	lb.txn = nil
	for i, bb := range t.blocks {
		if bb == b {
			t.blocks[i] = t.blocks[len(t.blocks)-1]
			t.blocks = t.blocks[:len(t.blocks)-1]
			break
		}
	}
	if len(t.blocks) == 0 {
		delete(c.txns, t.id)
		c.spareTxns = append(c.spareTxns, t)
	}
}

// journalWrite durably writes one commit-record part to log block b.
// The device time of a successful write is charged to the commit-path
// accounting before returning; failures surface classified, wrapped.
func (c *Controller) journalWrite(b int64, buf []byte) (sim.Duration, error) {
	d, err := c.hddWrite(c.cfg.VirtualBlocks+b, buf)
	if err != nil {
		return 0, fmt.Errorf("core: journal write block %d: %w", b, err)
	}
	c.Stats.NoteCommitWrite(d)
	return d, nil
}

// commitJournal drains the commit buffer — every pending dirty delta
// and control record — into group-commit transactions appended to the
// HDD journal. When the frontier lap finds no overwritable block, the
// compactor rescues the live records of the cheapest dead-most
// transactions first (LFS-style), as its own transaction, then the
// backlog continues. Quarantined SSD slots become reusable once a
// commit makes their tombstones durable.
func (c *Controller) commitJournal() error {
	if c.committing {
		return nil // re-entrant flush: the outer drain is already running
	}
	c.committing = true
	defer func() { c.committing = false }()
	// Relieve log pressure first: if the live volume plus this batch
	// would crowd the circular log, push the coldest blocks home.
	var pendingBytes int64
	for i := range c.control {
		pendingBytes += int64(entrySize(&c.control[i]))
	}
	for _, v := range c.dirtyQ {
		if v.inDirty && v.deltaDirty && v.deltaRAM != nil {
			pendingBytes += int64(entryHeadSize + len(v.deltaRAM))
		}
	}
	if err := c.shedLogPressure(pendingBytes); err != nil {
		return err
	}

	// Snapshot the commit buffer into the reusable staging area.
	pending := c.pendingScratch[:0]
	pending = append(pending, c.control...)
	c.control = c.control[:0]
	for _, v := range c.dirtyQ {
		if !v.inDirty || !v.deltaDirty || v.deltaRAM == nil || v.slotRef == nil {
			if v.inDirty {
				v.inDirty = false
			}
			continue
		}
		v.inDirty = false
		var flags byte
		if v.slotRef.donor == v.lba {
			flags |= flagDonor
		}
		pending = append(pending, logEntry{
			kind:  entryDelta,
			flags: flags,
			lba:   v.lba,
			slot:  v.slotRef.index,
			delta: v.deltaRAM,
		})
	}
	c.dirtyQ = c.dirtyQ[:0]
	c.dirtyBytes = 0
	c.pendingScratch = pending[:0]
	if len(pending) == 0 {
		return nil
	}
	c.Stats.FlushRuns++

	guard := 8 * c.cfg.LogBlocks // progress guard against a too-small log
	reserve := c.reserveLogBlocks()
	for len(pending) > 0 {
		if guard--; guard < 0 {
			c.requeuePending(pending)
			return fmt.Errorf("core: delta log too small for live delta volume (LogBlocks=%d)", c.cfg.LogBlocks)
		}
		if c.retiredLogBlocks >= c.cfg.LogBlocks {
			c.requeuePending(pending)
			return fmt.Errorf("core: every log block has failed: %w", blockdev.ErrMedia)
		}
		freeBefore := c.countFreeLogBlocks()
		spend := freeBefore - reserve
		if spend <= 0 {
			// The batch is about to dip into the compaction reserve:
			// rescue the dead-most transactions first to open space.
			progressed, err := c.compactStep(false, nil)
			if err != nil {
				c.requeuePending(pending)
				return err
			}
			if progressed && c.countFreeLogBlocks() > freeBefore {
				continue // compaction opened net space; retry the batch
			}
			// Compaction cannot open net space right now (every tracked
			// transaction is near-fully live): spend the reserve on the
			// batch itself — its tombstones and superseding records are
			// what kill transactions and reopen space for the compactor.
			// The final block is never spent: with zero free blocks the
			// compactor could not write a rescue at all, and the log
			// would wedge permanently.
			spend = c.countFreeLogBlocks() - 1
			if spend <= 0 {
				// Every committed record supersedes the previous live
				// record for its LBA, so the batch itself can be the cure
				// for a pinned log rather than a victim of it. The final
				// workspace blocks may be spent on it — but only with
				// proof that the commit frees at least one block, or the
				// log wedges at zero for good.
				if free := c.countFreeLogBlocks(); free > 0 && c.prefixUnpins(pending, free) {
					n, err := c.writeTxn(pending, free)
					if err != nil {
						c.requeuePending(pending)
						return err
					}
					if n > 0 {
						pending = pending[n:]
						continue
					}
				}
				// Fragmentation wedge: every block but the workspace
				// floor is pinned and a pure rescue cannot win. Compact
				// aggressively — evictable delta records are written to
				// their home locations and rescued as tombstones, so
				// victims shrink far below their logged size. Entries of
				// the in-flight batch alias block RAM and block eviction
				// for their LBAs.
				inFlight := make(map[int64]bool, len(pending))
				for i := range pending {
					inFlight[pending[i].lba] = true
				}
				before := c.countFreeLogBlocks()
				progressed, err := c.compactStep(true, inFlight)
				if err != nil {
					c.requeuePending(pending)
					return err
				}
				if !progressed || c.countFreeLogBlocks() <= before {
					c.requeuePending(pending)
					return fmt.Errorf("core: delta log too small for live delta volume (LogBlocks=%d)", c.cfg.LogBlocks)
				}
				continue
			}
		}
		if m := c.maxTxnBlocks(); spend > m {
			spend = m
		}
		n, err := c.writeTxn(pending, spend)
		if err != nil {
			c.requeuePending(pending)
			return err
		}
		if n == 0 {
			// A media retirement between the count and the write can
			// shrink the lap to nothing; the guard bounds the retries.
			continue
		}
		pending = pending[n:]
	}

	// Tombstones for detached slots are now durable: release quarantine.
	if len(c.quarantine) > 0 {
		c.freeSlots = append(c.freeSlots, c.quarantine...)
		c.quarantine = c.quarantine[:0]
	}
	return c.groomLog()
}

// groomLog restores the compaction workspace after a flush drains. The
// byte-level governor (shedLogPressure) bounds live volume, but
// transaction pinning can exhaust free blocks while bytes look healthy;
// left alone, the workspace ratchets down across flushes until the
// drain loop wedges on its final block. Right after a drain is the
// cheapest moment to push back: the control queue is empty and no
// in-flight batch constrains eviction. Pure compaction is tried first;
// when it cannot gain, the evicting mode shrinks cold victims to
// tombstones. Failure to reach the reserve is not an error — the next
// drain's wedge path remains the backstop.
func (c *Controller) groomLog() error {
	reserve := c.reserveLogBlocks()
	guard := 4 * c.cfg.LogBlocks
	for c.countFreeLogBlocks() <= reserve {
		if guard--; guard < 0 {
			return nil
		}
		freeBefore := c.countFreeLogBlocks()
		if _, err := c.compactStep(false, nil); err != nil {
			return err
		}
		if c.countFreeLogBlocks() > freeBefore {
			continue
		}
		if _, err := c.compactStep(true, nil); err != nil {
			return err
		}
		if c.countFreeLogBlocks() <= freeBefore {
			return nil
		}
	}
	return nil
}

// writeTxn packs a prefix of entries into one transaction of at most
// blockCap commit-record parts, writes every part durably, and only
// then publishes the batch (newest-record index, per-block metadata,
// stats). Returns how many entries committed; 0 with nil error means
// the frontier lap found no overwritable block. On error nothing of the
// transaction is visible.
func (c *Controller) writeTxn(entries []logEntry, blockCap int64) (int, error) {
	if blockCap < 1 {
		blockCap = 1
	}
	alloc := c.newLogAlloc()
	parts := c.partScratch[:0]
	n := 0
	for n < len(entries) && int64(len(parts)) < blockCap {
		blk, ok := alloc.take()
		if !ok {
			break
		}
		lo := n
		used := logHeaderSize
		for n < len(entries) {
			e := &entries[n]
			sz := entrySize(e)
			if used+sz > blockdev.BlockSize {
				break
			}
			e.seq = c.nextSeq()
			used += sz
			n++
		}
		if n == lo {
			// The block was empty, so the next entry alone overflows it.
			return 0, fmt.Errorf("core: delta record larger than a log block")
		}
		parts = append(parts, txnPart{lo: lo, hi: n, block: blk})
	}
	c.partScratch = parts[:0]
	if len(parts) == 0 {
		return 0, nil
	}

	id := c.nextTxn
	c.nextTxn++
	// Pooled pack buffer: encodeLogBlock fully overwrites it and the
	// device copies it, so nothing aliases it past the defer.
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	for i := range parts {
		p := &parts[i]
		hdr := blockHeader{txn: id, epoch: c.logEpoch, part: uint16(i), total: uint16(len(parts))}
		if i == len(parts)-1 {
			hdr.flags |= blockFlagCommit
		}
		encodeLogBlock(buf, hdr, entries[p.lo:p.hi])
		for {
			_, err := c.journalWrite(p.block, buf)
			if err == nil {
				// The old content of this block is destroyed only now;
				// forgetting it earlier would let an aborted commit
				// resurrect its superseded records at recovery.
				c.forgetLogBlock(p.block)
				break
			}
			if blockdev.Classify(err) != blockdev.ClassMedia {
				// Device-level failure: nothing of the transaction is
				// visible; the caller re-queues and retries the batch.
				return 0, err
			}
			// Latent defect under the frontier: the failed write may
			// have scribbled the block, so drop its old bookkeeping,
			// retire it, and move this part to the next free block.
			// Parts carry their index in the header, so their disk
			// placement is position-independent.
			c.forgetLogBlock(p.block)
			c.retireLogBlock(p.block)
			nb, ok := alloc.take()
			if !ok {
				return 0, fmt.Errorf("core: no usable log block after media failure: %w", blockdev.ErrMedia)
			}
			p.block = nb
		}
	}

	// Every part is durable: publish the transaction. It owns all its
	// blocks before the first record goes live, so addLive moves the
	// free count for every one of them.
	t := c.newTxn(id)
	for i := range parts {
		c.own(t, parts[i].block)
		c.Stats.LogBlocksWritten++
	}
	payload := 0
	for i := range parts {
		p := &parts[i]
		lb := &c.logBlocks[p.block]
		for j := p.lo; j < p.hi; j++ {
			e := &entries[j]
			sz := entrySize(e)
			lb.metas = append(lb.metas, entryMeta{kind: e.kind, flags: e.flags, lba: e.lba, seq: e.seq, slot: e.slot, size: int32(sz)})
			payload += sz
			c.lbas[e.lba].durable++
			c.setLogIndex(e.lba, logRec{block: p.block, seq: e.seq, kind: e.kind, size: int32(sz)})
			if e.kind == entryDelta {
				c.Stats.DeltasPacked++
				// A rescued delta is an older version: the newer dirty
				// delta (if any) is still waiting for its own commit.
				if v := c.lbas[e.lba].v; v != nil && !e.rescued {
					v.deltaDirty = false
				}
			}
		}
	}
	c.Stats.NoteCommit(payload)
	c.logHead = (c.logHead + alloc.steps) % c.cfg.LogBlocks
	return n, nil
}

// requeuePending pushes not-yet-durable commit work back onto the
// control queue after a failure: every entry keeps its payload (delta
// records carry their bytes), so the next commit packs the same records
// again with fresh sequence numbers. Compaction copies are dropped
// instead — their source records never stopped being live.
func (c *Controller) requeuePending(pending []logEntry) {
	for i := range pending {
		if pending[i].rescued {
			continue
		}
		c.control = append(c.control, pending[i])
	}
}

// compactStep rescues the live records of the transactions with the
// fewest survivors into one fresh transaction, which makes the victims'
// blocks overwritable once the rescue commits. Returns false when no
// space can be opened. The rescue commits as its own transaction BEFORE
// the backlog, so a superseding record for the same LBA always lands
// with a higher sequence number than its rescue.
// In evicting mode (evict=true) a live delta record whose block can be
// written back to its HDD home location is displaced instead of
// rescued: the content goes home, the vblock drops, and a 28-byte
// tombstone rides in the rescue transaction where the full delta would
// have. Victims shrink far below their logged size, which is what
// breaks fragmentation wedges a pure rescue cannot. Records whose LBA
// appears in inFlight (the drain loop's snapshotted batch) are never
// evicted — the pending entry aliases the block's RAM and must outrank
// the tombstone.
func (c *Controller) compactStep(evict bool, inFlight map[int64]bool) (bool, error) {
	// Write-free pass first: a tombstone that is the only record left
	// anywhere for its LBA no longer protects anything (the home
	// location is authoritative without it), so dropping it can release
	// whole transactions without writing a byte. This also works when
	// zero blocks are free and a rescue could not be written at all.
	// The pass walks the tracked blocks' records, not the LBA table; its
	// result does not depend on the order (clearing one LBA's record
	// changes no other LBA's).
	before := c.countFreeLogBlocks()
	for b := range c.logBlocks {
		lb := &c.logBlocks[b]
		if lb.txn == nil || lb.txn.live == 0 {
			continue
		}
		for i := range lb.metas {
			m := &lb.metas[i]
			if l := &c.lbas[m.lba]; m.kind == entryTombstone && l.durable == 1 && l.rec.at(int64(b), m.seq) {
				c.clearLogIndex(m.lba)
			}
		}
	}
	free := c.countFreeLogBlocks()
	freed := free > before
	if free == 0 {
		return freed, nil
	}
	// recSize is a record's projected size in the rescue transaction:
	// full size normally, tombstone-sized when eviction will displace it.
	recSize := func(m *entryMeta) int64 {
		if evict && m.kind == entryDelta && c.compactEvictable(m.lba, m.slot, inFlight) != nil {
			return entryHeadSize
		}
		return int64(m.size)
	}
	// Victims in ascending live-density order (projected rescue bytes
	// per block), ties on id: deterministic, and maximizes the blocks
	// freed per byte of rescue the workspace can hold.
	type victim struct {
		*txn
		bytes int64
	}
	var vs []victim
	for _, t := range c.txns {
		if t.live == 0 {
			continue
		}
		v := victim{txn: t}
		c.liveRecords(t, func(_ int64, m *entryMeta) bool {
			v.bytes += recSize(m)
			return true
		})
		vs = append(vs, v)
	}
	if len(vs) == 0 {
		return freed, nil
	}
	slices.SortFunc(vs, func(a, b victim) int {
		na, nb := int64(len(a.blocks)), int64(len(b.blocks))
		return cmp.Or(cmp.Compare(a.bytes*nb, b.bytes*na), cmp.Compare(a.bytes, b.bytes), cmp.Compare(a.id, b.id))
	})
	// Accept victims whose rescues, packed exactly the way writeTxn
	// packs (greedy, in order), fit the rescue budget; a victim too big
	// for the remaining budget is skipped, not a stopper — a denser
	// later victim may still fit. Dropped tombstones during the real
	// rescue only shrink the packing. The net-gain rule below keeps an
	// uncapped budget honest: a rescue may span many blocks only when
	// it frees strictly more.
	budget := free
	blocksUsed, usedInBlock := int64(0), 0
	fits := func(sz int) bool {
		if usedInBlock+sz > blockdev.BlockSize {
			if blocksUsed+1 >= budget {
				return false
			}
			blocksUsed++
			usedInBlock = logHeaderSize
		}
		usedInBlock += sz
		return true
	}
	usedInBlock = blockdev.BlockSize // force first record to open block 0
	blocksUsed = -1
	picked := vs[:0]
	for _, v := range vs {
		before, beforeUsed := blocksUsed, usedInBlock
		if !c.liveRecords(v.txn, func(_ int64, m *entryMeta) bool { return fits(int(recSize(m))) }) {
			blocksUsed, usedInBlock = before, beforeUsed
			continue
		}
		picked = append(picked, v)
	}
	if len(picked) == 0 {
		return freed, nil
	}
	// A rescue must open strictly more blocks than it spends: a
	// net-zero move only rearranges pins (and merges victims into the
	// immovable dense transactions it would later have to move again).
	var victimBlocks int64
	for _, v := range picked {
		victimBlocks += int64(len(v.blocks))
	}
	if victimBlocks < blocksUsed+2 {
		return freed, nil
	}

	rescues := c.rescueScratch[:0]
	var err error
	var displaced map[int64]bool
	if evict {
		// Evictions first, in a separate pass: writing content home can
		// hit RAM pressure whose reclaim path recycles delta buffers,
		// and the rescue pass below aliases live vblocks' delta RAM.
		displaced = make(map[int64]bool)
		for _, v := range picked {
			rescues, err = c.evictTxnDeltas(v.txn, rescues, inFlight, displaced)
			if err != nil {
				c.rescueScratch = rescues[:0]
				return false, err
			}
		}
	}
	for _, v := range picked {
		rescues, err = c.rescueTxn(v.txn, rescues, displaced)
		if err != nil {
			c.rescueScratch = rescues[:0]
			return false, err
		}
		c.Stats.LogCleanerRuns++
	}
	c.rescueScratch = rescues[:0]
	if len(rescues) == 0 {
		// Every live record was a droppable tombstone; the victims are
		// already dead and their blocks free without writing anything.
		return true, nil
	}
	n, err := c.writeTxn(rescues, budget)
	if err != nil {
		return false, err
	}
	if n < len(rescues) {
		// The budget above guarantees this cannot happen; fail loudly
		// rather than free victim blocks with rescues missing.
		return false, fmt.Errorf("core: compaction committed %d of %d rescues", n, len(rescues))
	}
	return true, nil
}

// prefixUnpins reports whether committing the prefix of pending that
// fits within budget blocks would fully unpin at least one tracked
// transaction. Every committed record — control or delta — supersedes
// the previous live record for its LBA, so a batch write can be the
// cure for a pinned log rather than a victim of it. The simulation
// mirrors writeTxn's greedy packing; only the first record per LBA
// counts, because later duplicates supersede within the new
// transaction, not the old one.
func (c *Controller) prefixUnpins(pending []logEntry, budget int64) bool {
	dec := make(map[*txn]int)
	seen := make(map[int64]bool)
	used := logHeaderSize
	for i := range pending {
		e := &pending[i]
		sz := entrySize(e)
		if used+sz > blockdev.BlockSize {
			if budget--; budget <= 0 {
				break
			}
			used = logHeaderSize
		}
		used += sz
		if seen[e.lba] {
			continue // only the first new record supersedes the current one
		}
		seen[e.lba] = true
		if rec := c.lbas[e.lba].rec; rec.kind != entryNone {
			if t := c.logBlocks[rec.block].txn; t != nil {
				dec[t]++
			}
		}
	}
	for t, d := range dec {
		if t.live == d {
			return true
		}
	}
	return false
}

// compactEvictable returns the vblock behind a live delta record when
// the evicting compactor may displace it to its home location, nil
// otherwise. Pending batch entries alias the block's RAM; the pinned
// block is mid-operation; a reference with associates may be the only
// durable source of its slot's base content (its self-delta means the
// flash copy is the base's last copy), so only an associate-free
// reference is demoted.
func (c *Controller) compactEvictable(lba int64, slot int64, inFlight map[int64]bool) *vblock {
	if inFlight[lba] {
		return nil
	}
	v := c.lbas[lba].v
	if v == nil || v == c.pinned {
		return nil
	}
	if v.kind == Reference && v.slotRef != nil && v.slotRef.refcnt > 1 {
		return nil
	}
	return v
}

// liveRecords calls yield for every record of t that is still the
// newest durable record for its LBA, block by block in log order, until
// yield returns false; it reports whether the walk ran to the end.
// yield may clear or supersede records, its own included.
func (c *Controller) liveRecords(t *txn, yield func(b int64, m *entryMeta) bool) bool {
	for _, b := range t.blocks {
		metas := c.logBlocks[b].metas
		for i := range metas {
			if m := &metas[i]; c.lbas[m.lba].rec.at(b, m.seq) && !yield(b, m) {
				return false
			}
		}
	}
	return true
}

// evictTxnDeltas displaces the evictable delta records of txn: content
// goes to its HDD home, the vblock drops, and a tombstone is appended
// to dst in place of the full rescue. Displaced LBAs are recorded so
// the rescue pass skips them. Each eviction returns its scratch once
// hddWrite has copied the content home (writeBackHome).
func (c *Controller) evictTxnDeltas(t *txn, dst []logEntry, inFlight map[int64]bool, displaced map[int64]bool) ([]logEntry, error) {
	var err error
	c.liveRecords(t, func(b int64, m *entryMeta) bool {
		if m.kind != entryDelta {
			return true
		}
		v := c.compactEvictable(m.lba, m.slot, inFlight)
		if v == nil {
			return true
		}
		if err = c.writeBackHome(v); err != nil {
			return false
		}
		c.Stats.WritebacksHome++
		c.dropVBlock(v)
		dst = append(dst, logEntry{kind: entryTombstone, rescued: true, lba: m.lba})
		displaced[m.lba] = true
		return true
	})
	return dst, err
}

// journalAsm assembles transactions from raw journal blocks. Crash
// recovery, the post-recovery audit, and the replay fuzzer all drive
// this same assembly, so they agree exactly on what "complete" means.
type journalAsm struct {
	blocks      map[int64]asmBlock // decodable journal blocks by log index
	txns        map[uint64]*asmTxn
	torn        int64 // CRC-corrupt or structurally invalid blocks
	maxSeq      uint64
	maxSeqBlock int64
	maxTxn      uint64
	maxEpoch    uint64
}

// asmBlock is one decoded commit-record part.
type asmBlock struct {
	hdr     blockHeader
	entries []logEntry
}

// asmTxn accumulates the parts seen for one transaction id.
type asmTxn struct {
	epoch  uint64
	total  int
	commit bool
	bad    bool // conflicting headers or duplicate parts
	seen   map[uint16]int64
}

func newJournalAsm() *journalAsm {
	return &journalAsm{
		blocks: make(map[int64]asmBlock),
		txns:   make(map[uint64]*asmTxn),
	}
}

// addBlock decodes one raw log block into the assembly. A corrupt
// block counts as torn (voiding its transaction); a block without
// journal magic is ignored.
func (a *journalAsm) addBlock(b int64, buf []byte) {
	hdr, entries, err := decodeLogBlock(buf)
	if err != nil {
		a.torn++
		return
	}
	if hdr.total == 0 {
		return // no magic: never-written block
	}
	a.blocks[b] = asmBlock{hdr: hdr, entries: entries}
	t := a.txns[hdr.txn]
	if t == nil {
		t = &asmTxn{epoch: hdr.epoch, total: int(hdr.total), seen: make(map[uint16]int64)}
		a.txns[hdr.txn] = t
	}
	// A part disagreeing with its siblings on epoch or part count — a
	// stale leftover reusing a transaction id — poisons the whole
	// transaction, as does the same part index appearing twice.
	if t.epoch != hdr.epoch || t.total != int(hdr.total) {
		t.bad = true
	}
	if _, dup := t.seen[hdr.part]; dup {
		t.bad = true
	}
	t.seen[hdr.part] = b
	if hdr.commit() {
		t.commit = true
	}
	if hdr.txn > a.maxTxn {
		a.maxTxn = hdr.txn
	}
	if hdr.epoch > a.maxEpoch {
		a.maxEpoch = hdr.epoch
	}
	// Sequence numbers from incomplete transactions count too: records
	// written after recovery must outrank everything left on the disk.
	for i := range entries {
		if entries[i].seq > a.maxSeq {
			a.maxSeq = entries[i].seq
			a.maxSeqBlock = b
		}
	}
}

// complete reports whether t assembled fully: every part present
// exactly once, headers consistent, commit marker seen. Anything less
// is discarded in full — never partially applied.
func (t *asmTxn) complete() bool {
	return !t.bad && t.commit && len(t.seen) == t.total
}

// rescueTxn appends rescue copies of every still-live record of txn to
// dst. Delta bytes come from RAM when it holds that exact version,
// otherwise from the victim's own blocks on disk. A tombstone that is
// the last record anywhere for its LBA is dropped instead (the home
// location is already authoritative without it). Sources stay live —
// the rescue supersedes them only when its transaction commits.
func (c *Controller) rescueTxn(t *txn, dst []logEntry, displaced map[int64]bool) ([]logEntry, error) {
	var blockData []byte // lazily read only if delta bytes are needed
	// Pooled: blockEntries alias blockData, and a rescued entry takes its
	// own copy of the one delta it keeps before the next read or the Put
	// below reuses the buffer.
	defer func() { blockdev.PutBlock(blockData) }()
	decoded := int64(-1) // the block blockEntries was decoded from
	var blockEntries []logEntry
	var err error
	c.liveRecords(t, func(b int64, m *entryMeta) bool {
		if displaced[m.lba] {
			return true // evicted home; its tombstone already rides along
		}
		switch m.kind {
		case entryDelta:
			// This is the newest DURABLE record for the LBA, so it
			// must survive even when RAM says a newer version is
			// coming (a dirty delta, a promotion): that newer
			// version is not durable until its own record commits,
			// and a crash in between must still find this one.
			var bytes []byte
			v := c.lbas[m.lba].v
			if v != nil && v.slotRef != nil && v.slotRef.index == m.slot &&
				!v.ssdCurrent && !v.deltaDirty && v.deltaRAM != nil {
				bytes = v.deltaRAM
			} else {
				// RAM does not hold this exact delta version
				// (evicted metadata, or a newer dirty delta in its
				// place): read the logged bytes back from the block.
				if decoded != b {
					if blockData == nil {
						blockData = blockdev.GetBlock()
					}
					var d sim.Duration
					if d, err = c.hddRead(c.cfg.VirtualBlocks+b, blockData); err != nil {
						err = fmt.Errorf("core: compaction read: %w", err)
						return false
					}
					c.Stats.BackgroundHDDTime += d
					if _, blockEntries, err = parseLogBlock(blockData); err != nil {
						err = fmt.Errorf("core: log block %d: %w", b, err)
						return false
					}
					decoded = b
				}
				for j := range blockEntries {
					if blockEntries[j].seq == m.seq {
						bytes = exactCopy(blockEntries[j].delta)
						break
					}
				}
				if bytes == nil {
					err = fmt.Errorf("core: log block %d missing seq %d", b, m.seq)
					return false
				}
			}
			dst = append(dst, logEntry{kind: entryDelta, flags: m.flags, rescued: true, lba: m.lba, slot: m.slot, delta: bytes})
			c.Stats.DeltasRescued++
		case entryPointer:
			dst = append(dst, logEntry{kind: entryPointer, flags: m.flags, rescued: true, lba: m.lba, slot: m.slot})
		case entryTombstone:
			// Recovery replays the newest record per LBA, so a
			// tombstone must outlive every older record for its LBA.
			// Only when it is the last record anywhere may it drop:
			// with no records at all, home is authoritative anyway.
			if c.lbas[m.lba].durable > 1 {
				dst = append(dst, logEntry{kind: entryTombstone, rescued: true, lba: m.lba})
			} else {
				c.clearLogIndex(m.lba)
			}
		}
		return true
	})
	return dst, err
}
