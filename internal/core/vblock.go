package core

import (
	"fmt"

	"icash/internal/sig"
)

// Kind classifies a virtual block (paper §4.3).
type Kind uint8

const (
	// Independent blocks have no reference association; their current
	// content lives in RAM and/or at their HDD home (or an SSD slot
	// after a threshold write-through).
	Independent Kind = iota
	// Reference blocks hold popular content in an SSD slot; associates
	// are delta-encoded against them.
	Reference
	// Associate blocks are represented as reference + delta.
	Associate
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Independent:
		return "independent"
	case Reference:
		return "reference"
	case Associate:
		return "associate"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// vblock is the per-LBA metadata record ("virtual block", paper §4.3):
// the LBA, the content signature, the reference association, and
// pointers to cached data and delta bytes. What outlives the vblock (the
// newest durable log record, the content checksum) is in lbaEntry.
//
// Field order is deliberate: the small fields share one 16-byte tail so
// the record stays inside the 128-byte malloc size class
// (TestVBlockSizeClass pins it).
type vblock struct {
	lba  int64
	sigv sig.Signature

	// slotRef is the SSD reference slot this block is attached to (nil
	// for plain independents). Attached blocks are decodable as slot
	// content plus delta. The block flagged as the slot's donor is the
	// "reference block"; other attached blocks are associates.
	// Independent blocks may also hold a slotRef after a threshold
	// write-through (§5.3): the slot then carries the block's current
	// content directly (ssdCurrent == true).
	slotRef *refSlot

	// dataRAM caches the current content (nil when evicted): a raw
	// BlockSize block, or a blockdev patch against basisOf(lba). It is
	// not a block to read as is: readData decodes it (ramdata.go).
	dataRAM []byte
	// deltaRAM holds the current delta against the slot content.
	deltaRAM []byte

	// LRU linkage (intrusive doubly-linked list).
	prev, next *vblock
	// dprev/dnext link the data-resident sublist (lruList): exactly the
	// listed blocks with dataRAM != nil, in LRU order. Both nil on a
	// non-member.
	dprev, dnext *vblock
	// stamp is the LRU sequence number taken when the block was last
	// linked at the head; list order is descending stamp. Zero while
	// the block is not linked.
	stamp uint64

	// deltaCRC is the CRC32-C of deltaRAM, set when the delta is
	// stored; materialize verifies it before decoding so a corrupt
	// cache entry is never baked into served content.
	deltaCRC uint32
	kind     Kind
	// dataDirty marks dataRAM newer than every durable copy.
	dataDirty bool
	// hddHome is true when the block's HDD home location holds its
	// current content.
	hddHome bool
	// ssdCurrent is true when the attached SSD slot holds the block's
	// *current* content (write-through blocks; for a donor it means no
	// self-delta has accumulated).
	ssdCurrent bool
	// deltaDirty marks deltaRAM as not yet packed into the log.
	deltaDirty bool
	// inDirty marks membership in the dirty-delta flush queue.
	inDirty bool
	// dead marks a block evicted from the controller; holders of stale
	// pointers (the scan window snapshot) must skip it.
	dead bool
}

// lbaEntry is the controller's record of one LBA of the virtual disk;
// Controller.lbas holds one per LBA, so the zero value is an LBA the
// controller knows nothing about (home location authoritative and
// unverified).
type lbaEntry struct {
	// v is the tracked virtual block, nil when metadata replacement
	// dropped it (or the LBA was never touched).
	v *vblock
	// rec is the newest durable log record for the LBA (kind entryNone:
	// there is none); recovery replays exactly this relation. In-RAM
	// state supersedes it while the controller is running.
	rec logRec
	// durable counts the LBA's records across the whole log, live or
	// superseded; a tombstone may be dropped only when it is the last.
	durable int32
	// sum is the CRC32-C of the LBA's current content, the end-to-end
	// integrity checksum: set on every successful host write and checked
	// at every layer crossing (integrity.go). sumOK is false, and sum
	// zero, while the content is not tracked: never written, regressed
	// to a stale copy (accounted-loss fallbacks) or indeterminate (a
	// failed write).
	sum   uint32
	sumOK bool
	// poison marks an LBA whose every copy failed verification: reads
	// fail loudly with ErrCorruption instead of serving wrong bytes,
	// until a full overwrite installs known-good content again.
	poison bool
}

// lruList is an intrusive LRU list of vblocks. head is most recently
// used, tail least. It threads a second list through the same nodes,
// the data-resident sublist: exactly the listed blocks whose dataRAM is
// non-nil, in the same relative order, so data-block replacement takes
// its victim from dtail instead of walking past every non-resident
// block. pushFront and remove keep both lists; dataCached and
// dataReleased are the two membership edges (cacheData, releaseData).
//
// A third list, the write-through sublist, holds exactly the listed
// blocks with slotRef != nil && kind == Independent, again in LRU
// order, so write-through reclaim takes its victim from wtail. A slot
// has at most one such block (refSlot.wt), so this one is threaded
// through the blocks' slots. Its membership edges are setKind and
// detachSlot.
//
// unattached counts the listed blocks with slotRef == nil, the only
// ones a similarity scan can act on: zero lets a scan skip its body
// without looking at the window. pushFront and remove move it with the
// node, attachSlot and detachSlot with the slot.
type lruList struct {
	head, tail *vblock
	n          int
	unattached int

	dhead, dtail *vblock
	whead, wtail *refSlot

	// seq is the last stamp handed out. Nodes are only ever linked at
	// the head, so list order is descending stamp, which lets
	// dataCached find a block's sublist rank without walking the list.
	seq uint64
}

// pushFront inserts v at the head (most recently used).
func (l *lruList) pushFront(v *vblock) {
	l.seq++
	v.stamp = l.seq
	v.prev = nil
	v.next = l.head
	if l.head != nil {
		l.head.prev = v
	}
	l.head = v
	if l.tail == nil {
		l.tail = v
	}
	l.n++
	if v.slotRef == nil {
		l.unattached++
	}
	if v.dataRAM != nil {
		l.dataInsertBefore(v, l.dhead)
	}
	if v.slotRef != nil && v.kind == Independent {
		l.wtInsertBefore(v, l.whead)
	}
}

// remove unlinks v.
func (l *lruList) remove(v *vblock) {
	if v.dataRAM != nil {
		l.dataUnlink(v)
	}
	if s := v.slotRef; s != nil && s.wt == v {
		l.wtUnlink(s)
	}
	if v.prev != nil {
		v.prev.next = v.next
	} else {
		l.head = v.next
	}
	if v.next != nil {
		v.next.prev = v.prev
	} else {
		l.tail = v.prev
	}
	v.prev, v.next = nil, nil
	v.stamp = 0
	l.n--
	if v.slotRef == nil {
		l.unattached--
	}
}

// moveToFront marks v most recently used.
func (l *lruList) moveToFront(v *vblock) {
	if l.head == v {
		return
	}
	l.remove(v)
	l.pushFront(v)
}

// len returns the list length.
func (l *lruList) len() int { return l.n }

// dataCached enters v, whose dataRAM just became non-nil, into the
// resident sublist at its LRU rank. A block not linked yet (getOrLoad
// caches before it links) joins when pushFront links it. The rank is
// found by comparing stamps from both ends alternately: the callers
// cache before they touch, so v is usually colder than every resident
// block (a re-read after eviction) or hotter than all of them, and
// either end answers in one step.
func (l *lruList) dataCached(v *vblock) {
	if v.stamp == 0 {
		return
	}
	h, t := l.dhead, l.dtail
	for h != nil {
		if v.stamp > h.stamp {
			l.dataInsertBefore(v, h)
			return
		}
		if v.stamp < t.stamp {
			l.dataInsertBefore(v, t.dnext)
			return
		}
		// dhead > v > dtail, so the rank lies strictly between and both
		// cursors reach it before they run off the list.
		h, t = h.dnext, t.dprev
	}
	l.dataInsertBefore(v, nil)
}

// dataReleased takes v, whose dataRAM is being dropped, out of the
// resident sublist.
func (l *lruList) dataReleased(v *vblock) {
	if v.stamp != 0 {
		l.dataUnlink(v)
	}
}

// dataInsertBefore links v into the resident sublist ahead of at (nil
// appends at the tail).
func (l *lruList) dataInsertBefore(v, at *vblock) {
	v.dnext = at
	if at != nil {
		v.dprev = at.dprev
		at.dprev = v
	} else {
		v.dprev = l.dtail
		l.dtail = v
	}
	if v.dprev != nil {
		v.dprev.dnext = v
	} else {
		l.dhead = v
	}
}

// dataUnlink unlinks v from the resident sublist.
func (l *lruList) dataUnlink(v *vblock) {
	if v.dprev != nil {
		v.dprev.dnext = v.dnext
	} else {
		l.dhead = v.dnext
	}
	if v.dnext != nil {
		v.dnext.dprev = v.dprev
	} else {
		l.dtail = v.dprev
	}
	v.dprev, v.dnext = nil, nil
}

// wtSync re-files v in the write-through sublist after its kind changed
// (setKind, which every attach is followed by). It enters at its LRU
// rank, found from both ends as in dataCached: a write-through of a
// block the request just loaded is hotter than every member, and the
// request's own touch moves any other to the head right after. A block
// that is not linked joins when pushFront links it; a block without a
// slot is no member, and detachSlot has already taken it out.
func (l *lruList) wtSync(v *vblock) {
	s := v.slotRef
	if s == nil || v.stamp == 0 {
		return
	}
	switch member, want := s.wt == v, v.kind == Independent; {
	case member == want:
		return
	case member:
		l.wtUnlink(s)
		return
	}
	h, t := l.whead, l.wtail
	for h != nil {
		if v.stamp > h.wt.stamp {
			l.wtInsertBefore(v, h)
			return
		}
		if v.stamp < t.wt.stamp {
			l.wtInsertBefore(v, t.wnext)
			return
		}
		h, t = h.wnext, t.wprev
	}
	l.wtInsertBefore(v, nil)
}

// wtInsertBefore links v's slot into the write-through sublist ahead of
// at (nil appends at the tail), with v as its owner.
func (l *lruList) wtInsertBefore(v *vblock, at *refSlot) {
	s := v.slotRef
	if s.wt != nil {
		panic(fmt.Sprintf("core: slot %d written through by lba %d and lba %d", s.index, s.wt.lba, v.lba))
	}
	s.wt = v
	s.wnext = at
	if at != nil {
		s.wprev = at.wprev
		at.wprev = s
	} else {
		s.wprev = l.wtail
		l.wtail = s
	}
	if s.wprev != nil {
		s.wprev.wnext = s
	} else {
		l.whead = s
	}
}

// wtUnlink takes s, whose owner stops being a write-through block, out
// of the write-through sublist.
func (l *lruList) wtUnlink(s *refSlot) {
	if s.wprev != nil {
		s.wprev.wnext = s.wnext
	} else {
		l.whead = s.wnext
	}
	if s.wnext != nil {
		s.wnext.wprev = s.wprev
	} else {
		l.wtail = s.wprev
	}
	s.wt, s.wprev, s.wnext = nil, nil, nil
}
