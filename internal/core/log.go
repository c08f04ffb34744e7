package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// The HDD delta log (paper §3.3) is a circular region of 4 KB blocks
// following the primary region, organized as a transactional
// group-commit journal (DESIGN.md §12). Pending records accumulate in
// an in-memory commit buffer; the committer packs whole batches into
// CRC-framed commit records — one transaction spanning one or more
// consecutive parts, the last part carrying the commit marker — and
// writes every part durably before any entry of the batch becomes
// visible to readers or to setLogIndex. One sequential HDD write
// commits many I/Os' worth of deltas, and one HDD read on a miss
// prefetches many deltas at once.
//
// On-disk journal block layout v2 (little endian):
//
//	[0:4)   magic "ICJL"
//	[4:6)   record count
//	[6:10)  CRC32 (IEEE) of the whole block with this field zeroed
//	[10:18) transaction id
//	[18:26) commit epoch (controller incarnation stamp)
//	[26:28) part index within the transaction
//	[28:30) part count of the transaction
//	[30]    block flags (bit 0: commit marker, set only on the last part)
//	[31]    reserved (zero)
//	then per record:
//	    kind   byte   (1 delta, 2 ssd pointer, 3 tombstone)
//	    flags  byte   (bit 0: donor — the LBA is the slot's donor)
//	    lba    int64
//	    seq    uint64
//	    slot   int64  (delta: reference slot; pointer: content slot)
//	    dlen   uint16 (delta bytes following; 0 for pointer/tombstone)
//	    delta  [dlen]byte
//
// Recovery assembles transactions from block headers and replays only
// complete ones — every part present, CRC-valid, consistent, with the
// commit marker among them — all-or-nothing; within the surviving
// records, the highest sequence number per LBA wins.

type entryKind uint8

const (
	entryNone      entryKind = 0 // RAM only: the zero logRec, no record
	entryDelta     entryKind = 1
	entryPointer   entryKind = 2
	entryTombstone entryKind = 3
)

// ErrCorruptLogBlock reports a journal block whose magic is present but
// whose checksum or structure does not hold — the signature of a torn
// (partially persisted) or corrupted commit write. Recovery treats such
// a block as holding no records, which voids its whole transaction:
// whatever the batch carried was the unflushed tail of the bounded
// reliability window (§3.3).
var ErrCorruptLogBlock = errors.New("core: corrupt log block")

const (
	logMagic      = "ICJL"
	logHeaderSize = 32
	entryHeadSize = 1 + 1 + 8 + 8 + 8 + 2
	// flagDonor marks the record's LBA as the donor of its slot.
	flagDonor byte = 1 << 0
	// flagReference marks a pointer record installed as a reference by
	// the scan (vs. a threshold write-through).
	flagReference byte = 1 << 1
	// blockFlagCommit marks the final part of a transaction — the
	// commit marker. A transaction replays only when every part is
	// present, CRC-valid, and the marker part is among them.
	blockFlagCommit byte = 1 << 0
)

// blockHeader is the decoded journal framing of one commit-record part.
type blockHeader struct {
	txn   uint64
	epoch uint64
	part  uint16
	total uint16
	flags byte
}

// commit reports whether this part carries the commit marker.
func (h blockHeader) commit() bool { return h.flags&blockFlagCommit != 0 }

// logEntry is a record queued for packing. seq is assigned at pack
// time. rescued marks a compaction copy (RAM-only, never encoded):
// its source record stays live until the copy commits, so a failed
// commit simply drops the copy instead of re-queueing it.
type logEntry struct {
	kind    entryKind
	flags   byte
	rescued bool
	lba     int64
	seq     uint64
	slot    int64
	delta   []byte
}

// entryMeta is the RAM-resident metadata the compactor keeps per packed
// record (no delta bytes).
type entryMeta struct {
	kind  entryKind
	flags byte
	lba   int64
	seq   uint64
	slot  int64
	size  int32 // packed size including header
}

// logRec is lbaEntry.rec: where the newest durable record for an LBA
// lives.
type logRec struct {
	block int64
	seq   uint64
	size  int32
	kind  entryKind
}

// at reports whether r is the record with sequence number seq in log
// block b (the zero logRec is no record anywhere).
func (r logRec) at(b int64, seq uint64) bool {
	return r.kind != entryNone && r.block == b && r.seq == seq
}

// setLogIndex makes rec the newest durable record for lba, maintaining
// the live-byte estimate used for log-pressure shedding and the per-
// transaction live-record counts that gate block reuse.
func (c *Controller) setLogIndex(lba int64, rec logRec) {
	c.clearLogIndex(lba)
	c.lbas[lba].rec = rec
	c.liveLogBytes += int64(rec.size)
	c.addLive(c.logBlocks[rec.block].txn, 1)
}

// clearLogIndex forgets lba's newest durable record, if it has one.
func (c *Controller) clearLogIndex(lba int64) {
	l := &c.lbas[lba]
	if l.rec.kind == entryNone {
		return
	}
	c.liveLogBytes -= int64(l.rec.size)
	c.addLive(c.logBlocks[l.rec.block].txn, -1)
	l.rec = logRec{}
}

// logCapacityBytes is the usable payload capacity of the log region,
// with one block of slack for the write frontier. Log blocks retired
// after write failures no longer count.
func (c *Controller) logCapacityBytes() int64 {
	usable := c.cfg.LogBlocks - 1 - c.retiredLogBlocks
	if usable < 1 {
		usable = 1
	}
	return usable * int64(blockdev.BlockSize-logHeaderSize)
}

// shedLogPressure keeps the live-record volume within the log capacity
// by writing the coldest delta-carrying blocks back to their home
// locations (their records become tombstones). Without shedding a
// too-small log would livelock in the compactor.
//
// Victims are selected in LRU order but written back in home-LBA order:
// the whole batch is collected first, then sorted, so the HDD services
// an elevator sweep of short forward seeks instead of one random
// multi-millisecond seek per eviction. At queue depth the background
// writeback stream is what saturates the disk, so the sweep order is
// worth a large slice of the commit budget. Each eviction returns its
// scratch once hddWrite has copied the content home (writeBackHome).
func (c *Controller) shedLogPressure(pendingBytes int64) error {
	limit := c.logCapacityBytes() * 3 / 4
	projected := c.liveLogBytes + pendingBytes
	if projected <= limit {
		return nil
	}
	victims := c.shedScratch[:0]
	for v := c.lru.tail; v != nil && projected > limit; v = v.prev {
		if v == c.pinned || v.kind == Reference {
			continue
		}
		if v.deltaRAM == nil && !c.deltaLogged(v) {
			continue
		}
		if v.deltaDirty && v.deltaRAM != nil {
			projected -= int64(entryHeadSize + len(v.deltaRAM))
		}
		if rec := c.lbas[v.lba].rec; rec.kind == entryDelta {
			projected -= int64(rec.size)
		}
		projected += entryHeadSize // the tombstone
		victims = append(victims, v)
	}
	slices.SortFunc(victims, func(a, b *vblock) int { return cmp.Compare(a.lba, b.lba) })
	for _, v := range victims {
		if v.dead {
			continue // dropped as a side effect of an earlier eviction
		}
		if err := c.evictToHome(v); err != nil {
			c.shedScratch = victims[:0]
			return err
		}
	}
	c.shedScratch = victims[:0]
	return nil
}

// nextSeq hands out monotonically increasing record sequence numbers.
func (c *Controller) nextSeq() uint64 {
	c.logSeq++
	return c.logSeq
}

// queueControl appends a control record (pointer/tombstone) for the next
// flush.
func (c *Controller) queueControl(e logEntry) {
	c.control = append(c.control, e)
}

// maybeFlush commits when dirty volume or the periodic op counter says
// so (paper §3.3: the flush interval is a tunable reliability knob).
func (c *Controller) maybeFlush() error {
	if c.dirtyBytes >= c.cfg.FlushDirtyBytes {
		return c.commitJournal()
	}
	if c.cfg.FlushPeriodOps > 0 && c.opCount%int64(c.cfg.FlushPeriodOps) == 0 &&
		(len(c.dirtyQ) > 0 || len(c.control) > 0) {
		return c.commitJournal()
	}
	return nil
}

// entrySize returns the packed size of e.
func entrySize(e *logEntry) int { return entryHeadSize + len(e.delta) }

// logBlockCRC computes the block checksum: CRC32-IEEE over the whole
// block with the checksum field treated as zero (computed piecewise so
// the caller's buffer is never mutated).
// crcZero stands in for the checksum field itself; package-level so
// taking the slice never escapes to the heap (the commit path is
// allocation-gated).
var crcZero [4]byte

func logBlockCRC(buf []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, buf[0:6])
	crc = crc32.Update(crc, crc32.IEEETable, crcZero[:])
	return crc32.Update(crc, crc32.IEEETable, buf[10:])
}

// encodeLogBlock serializes one commit-record part into buf (4 KB, zero
// padded): the journal framing from hdr, then the records.
func encodeLogBlock(buf []byte, hdr blockHeader, entries []logEntry) {
	for i := range buf {
		buf[i] = 0
	}
	copy(buf[0:4], logMagic)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(entries)))
	binary.LittleEndian.PutUint64(buf[10:18], hdr.txn)
	binary.LittleEndian.PutUint64(buf[18:26], hdr.epoch)
	binary.LittleEndian.PutUint16(buf[26:28], hdr.part)
	binary.LittleEndian.PutUint16(buf[28:30], hdr.total)
	buf[30] = hdr.flags
	off := logHeaderSize
	for i := range entries {
		e := &entries[i]
		buf[off] = byte(e.kind)
		buf[off+1] = e.flags
		binary.LittleEndian.PutUint64(buf[off+2:], uint64(e.lba))
		binary.LittleEndian.PutUint64(buf[off+10:], e.seq)
		binary.LittleEndian.PutUint64(buf[off+18:], uint64(e.slot))
		binary.LittleEndian.PutUint16(buf[off+26:], uint16(len(e.delta)))
		off += entryHeadSize
		copy(buf[off:], e.delta)
		off += len(e.delta)
	}
	binary.LittleEndian.PutUint32(buf[6:10], logBlockCRC(buf))
}

// decodeLogBlock parses one commit-record part into entries that own
// their delta bytes, so buf may go back to the pool.
func decodeLogBlock(buf []byte) (blockHeader, []logEntry, error) {
	hdr, entries, err := parseLogBlock(buf)
	for i := range entries {
		if e := &entries[i]; e.delta != nil {
			e.delta = exactCopy(e.delta)
		}
	}
	return hdr, entries, err
}

// parseLogBlock parses one commit-record part; a block that never held
// journal data (no magic) yields no entries and a zero header. A block
// whose magic is present but whose checksum, framing, or record
// structure fails returns ErrCorruptLogBlock — the torn-write
// signature, which voids the block's whole transaction on replay. The
// entries' delta bytes alias buf: a caller that keeps one past buf's
// next use copies it (decodeLogBlock copies them all).
func parseLogBlock(buf []byte) (blockHeader, []logEntry, error) {
	var hdr blockHeader
	if string(buf[0:4]) != logMagic {
		return hdr, nil, nil
	}
	if got, want := binary.LittleEndian.Uint32(buf[6:10]), logBlockCRC(buf); got != want {
		return hdr, nil, fmt.Errorf("%w: checksum %08x, computed %08x", ErrCorruptLogBlock, got, want)
	}
	hdr.txn = binary.LittleEndian.Uint64(buf[10:18])
	hdr.epoch = binary.LittleEndian.Uint64(buf[18:26])
	hdr.part = binary.LittleEndian.Uint16(buf[26:28])
	hdr.total = binary.LittleEndian.Uint16(buf[28:30])
	hdr.flags = buf[30]
	if hdr.total == 0 {
		return hdr, nil, fmt.Errorf("%w: zero part count", ErrCorruptLogBlock)
	}
	if hdr.part >= hdr.total {
		return hdr, nil, fmt.Errorf("%w: part %d of %d", ErrCorruptLogBlock, hdr.part, hdr.total)
	}
	if hdr.flags&^blockFlagCommit != 0 {
		return hdr, nil, fmt.Errorf("%w: unknown block flags %02x", ErrCorruptLogBlock, hdr.flags)
	}
	if hdr.commit() != (hdr.part == hdr.total-1) {
		return hdr, nil, fmt.Errorf("%w: commit marker on part %d of %d", ErrCorruptLogBlock, hdr.part, hdr.total)
	}
	if buf[31] != 0 {
		return hdr, nil, fmt.Errorf("%w: reserved byte %02x", ErrCorruptLogBlock, buf[31])
	}
	count := int(binary.LittleEndian.Uint16(buf[4:6]))
	entries := make([]logEntry, 0, count)
	off := logHeaderSize
	for i := 0; i < count; i++ {
		if off+entryHeadSize > len(buf) {
			return hdr, nil, fmt.Errorf("%w: record %d overruns block", ErrCorruptLogBlock, i)
		}
		e := logEntry{
			kind:  entryKind(buf[off]),
			flags: buf[off+1],
			lba:   int64(binary.LittleEndian.Uint64(buf[off+2:])),
			seq:   binary.LittleEndian.Uint64(buf[off+10:]),
			slot:  int64(binary.LittleEndian.Uint64(buf[off+18:])),
		}
		dlen := int(binary.LittleEndian.Uint16(buf[off+26:]))
		off += entryHeadSize
		if off+dlen > len(buf) {
			return hdr, nil, fmt.Errorf("%w: record %d delta overruns block", ErrCorruptLogBlock, i)
		}
		if dlen > 0 {
			e.delta = buf[off : off+dlen : off+dlen]
			off += dlen
		}
		switch e.kind {
		case entryDelta, entryPointer, entryTombstone:
		default:
			return hdr, nil, fmt.Errorf("%w: record %d has unknown kind %d", ErrCorruptLogBlock, i, e.kind)
		}
		entries = append(entries, e)
	}
	return hdr, entries, nil
}

// loadDeltaBlock services a read-path miss on a delta that lives only in
// the log: one HDD read fetches the packed block, and every still-live
// delta in it is prefetched into RAM — the paper's "one HDD operation
// yields many I/Os" effect. Returns the synchronous latency.
func (c *Controller) loadDeltaBlock(b int64) (sim.Duration, error) {
	// Pooled: decodeLogBlock copies delta bytes out before the Put.
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	d, err := c.hddRead(c.cfg.VirtualBlocks+b, buf)
	if err != nil {
		return 0, fmt.Errorf("core: log read: %w", err)
	}
	c.Stats.ReadLogLoads++
	_, entries, err := decodeLogBlock(buf)
	if err != nil {
		// The journal copy failed its CRC/framing checks: a silently
		// corrupted (or misdirect-clobbered) log block. Classed as
		// corruption so the read path drops the delta as accounted loss
		// instead of retrying a copy that cannot get better.
		c.noteCorruption("hdd", c.cfg.VirtualBlocks+b)
		return d, fmt.Errorf("core: log block %d: %w: %w", b, err, blockdev.ErrCorruption)
	}
	for i := range entries {
		e := &entries[i]
		// A foreign block that still frames correctly (a misdirected
		// write) can name any LBA at all.
		if e.kind != entryDelta || !c.validLBA(e.lba) {
			continue
		}
		l := &c.lbas[e.lba]
		if !l.rec.at(b, e.seq) {
			continue
		}
		v := l.v
		if v == nil || v.slotRef == nil || v.slotRef.index != e.slot || v.deltaRAM != nil {
			continue
		}
		// Best effort: install clean; on budget failure skip (the delta
		// stays log-resident). Never reclaims — prefetch must not evict.
		c.storeDeltaBestEffort(v, e.delta, false)
	}
	return d, nil
}

// Flush establishes a full consistency point: dirty independent data
// blocks are written back to their home locations, then all pending
// deltas and control records are committed to the journal, and finally
// write-through slots gain home backups. After Flush, a crash loses
// nothing.
func (c *Controller) Flush() error {
	c.releaseScratch(0)       // request boundary: prior scratch is dead
	defer c.releaseScratch(0) // Flush hands no bytes back
	for v := c.lru.head; v != nil; v = v.next {
		if v.dataDirty && v.dataRAM != nil {
			if err := c.writeHome(v, v.dataRAM); err != nil {
				return err
			}
		}
	}
	if err := c.commitJournal(); err != nil {
		return err
	}
	return c.backupWriteThroughs()
}

// backupWriteThroughs writes the content of every backup-less
// write-through slot to its donor's home location and records the
// backup on the slot. A write-through slot is born without a home
// backup (the home copy is stale the moment the write lands on flash);
// until the next Flush it is the one kind of slot that a scrub cannot
// repair and a hedged read cannot rescue. This pass closes that window
// at every consistency point, at the cost of one background HDD write
// per new write-through. An unwritable home is skipped — the slot just
// stays backup-less until a later Flush.
//
// writeHome's hddWrite copies each slot's content home, so its scratch
// goes back before the next slot.
func (c *Controller) backupWriteThroughs() error {
	mark := c.scratchMark()
	for _, s := range c.liveSlots() {
		if s.homeLBA >= 0 || s.donor < 0 {
			continue
		}
		v := c.lbas[s.donor].v
		if v == nil || v.slotRef != s || !v.ssdCurrent {
			continue
		}
		content, _, err := c.slotContent(s, true)
		if err != nil {
			if blockdev.Classify(err) == blockdev.ClassDeviceLost {
				return err
			}
			continue // unreadable slot: scrub handles it on the read path
		}
		if err := c.writeHome(v, content); err == nil {
			s.homeLBA = v.lba
			s.crc = contentCRC(content)
		}
		c.releaseScratch(mark)
	}
	return nil
}
