package core

import (
	"encoding/binary"
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/delta"
	"icash/internal/ram"
	"icash/internal/sig"
	"icash/internal/sim"
)

// refSlot is one SSD block holding immutable reference content. Virtual
// blocks attach to a slot and carry a delta against its content; the
// slot's content never changes while any block is attached, which keeps
// every associate decodable (a written "reference block" keeps its SSD
// data and accumulates its own delta, paper §4.3).
type refSlot struct {
	index  int64         // SSD block index
	refcnt int           // attached virtual blocks
	donor  int64         // lba whose content was installed, -1 when unknown
	sigv   sig.Signature // signature of the slot content
	crc    uint32        // CRC32 of the slot content (repair validation)
	listed bool          // slotOrder holds an entry for this slot (see liveSlots)
	// homeLBA is the HDD home location holding a backup of the slot
	// content (the donor's home at install time), or -1. scrubSlot
	// re-fetches damaged reference content from here; the CRC guards
	// against the backup having been overwritten since.
	homeLBA int64

	// wt is the write-through block that owns this slot: the linked
	// Independent block attached to it, nil when there is none. At most
	// one block per slot can be that (a write-through takes a slot as
	// its sole occupant, and every later arrival attaches as an
	// associate), so the write-through sublist (lruList) is threaded
	// through the slots, which SSDBlocks bounds, and not through every
	// vblock. wprev/wnext are its links; nil while wt is nil.
	wt           *vblock
	wprev, wnext *refSlot
}

// Controller is the I-CASH device: an SSD + HDD pair coupled by the
// similarity/delta algorithm. It implements blockdev.Device. It is not
// safe for concurrent use; the simulation is single-threaded.
type Controller struct {
	cfg   Config
	clock *sim.Clock
	cpu   *cpumodel.Accountant
	costs cpumodel.Costs

	ssd blockdev.Device // reference store, cfg.SSDBlocks
	hdd blockdev.Device // primary region + delta-log region

	heat *sig.Heatmap
	// lbas holds one record per LBA of the virtual disk: the tracked
	// vblock, the newest durable log record, the content checksum.
	lbas []lbaEntry
	lru  lruList

	deltaBudget *ram.Budget
	dataBudget  *ram.Budget
	// basis is the data set's shared content the RAM data blocks are
	// patched against (nil: none), patchFree the released patch
	// buffers, one free list per class, and patchMisses the fills with
	// a basis block since the last kept patch (ramdata.go).
	basis       blockdev.Basis
	patchFree   [patchClasses][][]byte
	patchMisses int

	// slotTab holds the live slot at each SSD index, nil where there is
	// none; nLiveSlots counts the non-nil entries.
	slotTab    []*refSlot
	nLiveSlots int
	// slotOrder lists slots in the order they came to life (first
	// attach, or re-attach after a compaction dropped the entry) for
	// deterministic similarity search (map iteration order would not be
	// reproducible). An entry whose refcnt fell to zero stays until
	// liveSlots compacts; slotsStale says one may be there.
	slotOrder  []*refSlot
	slotsStale bool
	freeSlots  []int64
	// probe indexes slotOrder's probe prefix for the scan (probe.go);
	// nil until the first scan that probes.
	probe *probeIndex
	// quarantine holds freed SSD slots that may not be reused until the
	// next log flush commits the tombstones that detached them.
	quarantine []int64
	// retiredSlots lists SSD blocks permanently removed from circulation
	// after unrecoverable program failures (see resilience.go).
	retiredSlots []int64

	// ssdLost marks HDD-only degraded mode: the SSD failed wholesale and
	// every request bypasses it (see degradeSSD).
	ssdLost bool

	// ssdQuarantined marks soft quarantine of a fail-slow SSD: reads
	// prefer the HDD home backup and writes skip similarity detection
	// and write-through, but no state is salvaged — clearing the flag
	// re-admits the device intact (see SetSSDQuarantined).
	ssdQuarantined bool
	// quarantineReads counts slot reads arriving while quarantined;
	// every canaryInterval-th one probes the SSD so the detector keeps
	// receiving samples and can eventually re-admit the device.
	quarantineReads int64

	// lastAttemptDur is the device service time of the most recent
	// single attempt inside withRetry, excluding backoff and earlier
	// failed attempts — the hedging decision keys on this so a
	// transient-retry detour does not masquerade as a slow device.
	lastAttemptDur sim.Duration

	// dirtyQ is the FIFO of virtual blocks with unflushed deltas or
	// pending control records, in write order (flush packs in this
	// order, preserving the temporal grouping of §3.1).
	dirtyQ     []*vblock
	dirtyBytes int64
	// control holds pending durable control records (tombstones and SSD
	// pointers) awaiting the next flush.
	control []logEntry

	logHead int64 // next log block (index within the log region)
	logSeq  uint64
	// logBlocks holds one record per block of the log region.
	// retiredLogBlocks counts the bad ones and freeLogBlocks the ones
	// logBlockFree holds for.
	logBlocks        []logBlock
	retiredLogBlocks int64
	freeLogBlocks    int64
	// txns holds the transactions that still own log blocks, by id, and
	// spareTxns the records of those that no longer do, for reuse.
	txns      map[uint64]*txn
	spareTxns []*txn

	// nextTxn hands out journal transaction IDs. IDs are never reused,
	// so a half-overwritten old transaction can never alias a new one.
	nextTxn uint64
	// logEpoch stamps every commit record written by this controller
	// incarnation; recovery bumps it past everything it saw on disk.
	logEpoch uint64
	// pendingScratch, partScratch and rescueScratch are the commit
	// path's reusable staging areas (alloc-gated: steady-state commits
	// reuse them instead of allocating).
	pendingScratch []logEntry
	partScratch    []txnPart
	rescueScratch  []logEntry
	// shedScratch is shedLogPressure's reusable victim batch: evictions
	// are collected in LRU order, then written back in home-LBA order so
	// the HDD sweeps them with short forward seeks.
	shedScratch []*vblock
	// scanCands and scanSigGroup are scan's reusable window: the
	// candidates with their popularity, and the blocks per signature.
	scanCands    []scanCand
	scanSigGroup map[sig.Signature]int
	// committing guards against re-entrant flushes: eviction inside a
	// commit can hit RAM pressure whose reclaim path asks for another
	// flush, but the commit buffer is already snapshotted — a nested
	// drain would interleave quarantine releases and grooming with the
	// half-finished outer commit.
	committing bool

	// sameOffset indexes blocks by VM-image offset for first-load
	// similarity pairing (paper §4.2 case 1).
	sameOffset map[int64][]*vblock

	// nPoisoned counts the LBAs whose poison flag is set.
	nPoisoned int
	// corruptionHook, when set, observes every checksum-mismatch
	// detection (device name + device-local address). The chaos harness
	// uses it to measure detection latency against injection times.
	corruptionHook func(dev string, devLBA int64)

	// Background scrubber state (see scrub.go). scrub.Interval <= 0
	// disables scrubbing entirely.
	scrub           ScrubConfig
	scrubArmed      bool
	scrubNext       sim.Time
	scrubSlotCursor int64
	scrubHomeCursor int64

	// liveLogBytes approximates the payload bytes of live delta records
	// in the log; shedding keeps it below the log capacity.
	liveLogBytes int64

	opCount int64

	// pinned is the block currently being served by ReadBlock or
	// WriteBlock; every eviction and reclamation path skips it so that
	// budget pressure can never drop the in-flight request's state.
	pinned *vblock

	// evictProbe, when set, observes every evictOneDataRAM call just
	// before the victim (nil when none qualified) is released, with the
	// number of sublist nodes the walk visited. Tests only: the
	// differential oracle and the step bound hang off it.
	evictProbe func(keep, victim *vblock, steps int)

	// scratch holds the pooled buffers handed out by getScratch during
	// the current host request, oldest first; background loops release
	// them per item and the next request entry releases the rest (see
	// scratch.go).
	scratch [][]byte
	// scratchPeak is the most scratch buffers ever out at once. When
	// poisonScratch is set, releaseScratch overwrites what it returns,
	// so a slice used after its release reads wrong bytes. Tests only.
	scratchPeak   int
	poisonScratch bool

	// encBuf is the buffer every delta encode runs in (encodeDelta). Its
	// contents are dead once encodeDelta returns; nothing retains it.
	encBuf []byte

	// Stats is externally visible accounting.
	Stats Stats
}

// New builds a controller over the given SSD and HDD devices. The HDD
// must be at least cfg.VirtualBlocks+cfg.LogBlocks large; the SSD at
// least cfg.SSDBlocks.
func New(cfg Config, ssdDev, hddDev blockdev.Device, clock *sim.Clock, cpu *cpumodel.Accountant) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ssdDev.Blocks() < cfg.SSDBlocks {
		return nil, fmt.Errorf("core: SSD has %d blocks, config needs %d", ssdDev.Blocks(), cfg.SSDBlocks)
	}
	if hddDev.Blocks() < cfg.VirtualBlocks+cfg.LogBlocks {
		return nil, fmt.Errorf("core: HDD has %d blocks, need %d (primary) + %d (log)",
			hddDev.Blocks(), cfg.VirtualBlocks, cfg.LogBlocks)
	}
	c := &Controller{
		cfg:           cfg,
		clock:         clock,
		cpu:           cpu,
		costs:         cpumodel.DefaultCosts(),
		ssd:           ssdDev,
		hdd:           hddDev,
		heat:          sig.NewHeatmap(),
		lbas:          make([]lbaEntry, cfg.VirtualBlocks),
		deltaBudget:   ram.NewBudget(cfg.DeltaRAMBytes),
		dataBudget:    ram.NewBudget(cfg.DataRAMBytes),
		slotTab:       make([]*refSlot, cfg.SSDBlocks),
		logBlocks:     make([]logBlock, cfg.LogBlocks),
		freeLogBlocks: cfg.LogBlocks,
		txns:          make(map[uint64]*txn),
		nextTxn:       1,
		logEpoch:      1,
		scanSigGroup:  make(map[sig.Signature]int),
		sameOffset:    make(map[int64][]*vblock),
		// A rejected encode stops before its buffer would pass the
		// threshold plus one op's two varints, so this never grows.
		encBuf: make([]byte, 0, cfg.DeltaThreshold+2*binary.MaxVarintLen64),
	}
	c.freeSlots = make([]int64, 0, cfg.SSDBlocks)
	for i := cfg.SSDBlocks - 1; i >= 0; i-- {
		c.freeSlots = append(c.freeSlots, i)
	}
	return c, nil
}

// Blocks returns the virtual disk capacity.
func (c *Controller) Blocks() int64 { return c.cfg.VirtualBlocks }

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Heatmap exposes the popularity table for inspection tools and tests.
func (c *Controller) Heatmap() *sig.Heatmap { return c.heat }

// DeltaRAMUsed returns the current delta-buffer occupancy in bytes.
func (c *Controller) DeltaRAMUsed() int64 { return c.deltaBudget.Used() }

// segBytes rounds a delta size up to segment granularity; deltas are
// managed as linked 64-byte segments (paper §4.3).
func (c *Controller) segBytes(n int) int64 {
	seg := int64(c.cfg.SegmentSize)
	return (int64(n) + seg - 1) / seg * seg
}

// offsetKey maps an LBA to its VM-image offset key, or -1 when VM-aware
// pairing is disabled.
func (c *Controller) offsetKey(lba int64) int64 {
	if c.cfg.VMImageBlocks <= 0 {
		return -1
	}
	return lba % c.cfg.VMImageBlocks
}

// validLBA reports whether an LBA decoded from the media indexes the
// LBA table (host requests are range-checked at entry).
func (c *Controller) validLBA(lba int64) bool {
	return lba >= 0 && lba < c.cfg.VirtualBlocks
}

// KindCounts snapshots the virtual-block population.
func (c *Controller) KindCounts() KindCounts {
	var k KindCounts
	for v := c.lru.head; v != nil; v = v.next {
		switch v.kind {
		case Reference:
			k.Reference++
		case Associate:
			k.Associate++
		default:
			k.Independent++
		}
	}
	return k
}

// ---------------------------------------------------------------------
// Virtual block lifecycle
// ---------------------------------------------------------------------

// getOrLoad returns the vblock for lba, loading it from the HDD home
// location on a miss (forWrite skips the home read: a full-block write
// overwrites everything). The returned latency is the synchronous cost.
func (c *Controller) getOrLoad(lba int64, forWrite bool) (*vblock, sim.Duration, error) {
	if v := c.lbas[lba].v; v != nil {
		return v, 0, nil
	}
	if err := c.ensureMetadata(); err != nil {
		return nil, 0, err
	}
	v := &vblock{lba: lba, hddHome: true}
	var lat sim.Duration
	var buf []byte
	if !forWrite {
		// Pooled: cacheData copies, sig.Compute and first-load pairing
		// only read, so the buffer is dead by the time the deferred Put
		// runs.
		buf = blockdev.GetBlock()
		defer blockdev.PutBlock(buf)
		d, err := c.readHomeVerified(lba, buf)
		if err != nil {
			return nil, 0, err
		}
		lat += d
		c.Stats.ReadHDDMisses++
		if err := c.cacheData(v, buf, false); err != nil {
			return nil, 0, err
		}
		v.sigv = sig.Compute(buf)
		c.cpu.ChargeStorage(c.costs.Signature)
	}
	c.track(v)
	// First-load similarity: look for an attached block at the same
	// VM-image offset and try to share its reference (paper §4.2).
	if !forWrite && v.dataRAM != nil {
		c.pinned = v // pairing may trigger reclamation
		c.tryFirstLoadPair(v, buf)
	}
	return v, lat, nil
}

// track enters v into the controller's indexes: the LBA table, the head
// of the LRU, and the VM-offset pairing index.
func (c *Controller) track(v *vblock) {
	c.lbas[v.lba].v = v
	c.lru.pushFront(v)
	if key := c.offsetKey(v.lba); key >= 0 {
		c.sameOffset[key] = append(c.sameOffset[key], v)
	}
}

// dropVBlock removes v from all controller indexes and releases its RAM.
// The caller must already have made v's content durable.
func (c *Controller) dropVBlock(v *vblock) {
	v.dead = true
	v.inDirty = false // pending flush entries for v are skipped
	c.releaseData(v)
	c.releaseDelta(v)
	if v.slotRef != nil {
		c.detachSlot(v)
	}
	c.lru.remove(v)
	c.lbas[v.lba].v = nil
	if key := c.offsetKey(v.lba); key >= 0 {
		list := c.sameOffset[key]
		for i, b := range list {
			if b == v {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(c.sameOffset, key)
		} else {
			c.sameOffset[key] = list
		}
	}
	c.Stats.EvictVBlocks++
}

// ---------------------------------------------------------------------
// RAM budget management
// ---------------------------------------------------------------------

// cacheData installs content (copied) as v's RAM data block, evicting
// colder data blocks if needed. dirty marks the copy newer than any
// durable copy.
func (c *Controller) cacheData(v *vblock, content []byte, dirty bool) error {
	if v.dataRAM == nil {
		for !c.dataBudget.Reserve(blockdev.BlockSize) {
			if !c.evictOneDataRAM(v) {
				// Budget too small to hold even this block: serve
				// without caching. Dirty content must not be dropped.
				if dirty {
					if err := c.writeHome(v, content); err != nil {
						return err
					}
				}
				return nil
			}
		}
		c.putData(v, content)
		c.lru.dataCached(v)
	} else {
		c.putData(v, content)
	}
	v.dataDirty = dirty
	return nil
}

// releaseData drops v's RAM data block (caller handles dirtiness) and
// recycles its buffer. Nothing outside ramdata.go holds a slice of it.
func (c *Controller) releaseData(v *vblock) {
	if v.dataRAM != nil {
		c.lru.dataReleased(v)
		c.freeData(v.dataRAM)
		v.dataRAM = nil
		c.dataBudget.Release(blockdev.BlockSize)
	}
}

// evictOneDataRAM frees one cached data block: the coldest one, taken
// from the tail of the LRU's data-resident sublist (paper's data-block
// replacement, §4.3). keep and the pinned block are exempt and are the
// only nodes the walk can skip, apart from a dirty victim whose home
// write fails. Reports whether anything was freed.
func (c *Controller) evictOneDataRAM(keep *vblock) bool {
	var victim *vblock
	steps := 0
	for v := c.lru.dtail; v != nil; v = v.dprev {
		steps++
		if v == keep || v == c.pinned {
			continue
		}
		if v.dataDirty {
			// Only copy: make it durable at the home location first.
			if err := c.writeBackHome(v); err != nil {
				continue
			}
		}
		victim = v
		break
	}
	if c.evictProbe != nil {
		c.evictProbe(keep, victim, steps)
	}
	if victim == nil {
		return false
	}
	c.releaseData(victim)
	c.Stats.EvictDataRAM++
	return true
}

// encodeDelta charges and counts one delta encode of target against
// base. The encode runs in the controller's reused buffer; what is
// returned is an exact-size private copy, so the caller may hand it to
// storeDelta to retain — and a nested encode (storeDelta's reclamation
// can reach one) cannot overwrite it. ok is false when the delta would
// exceed cfg.DeltaThreshold.
func (c *Controller) encodeDelta(target, base []byte) (enc []byte, ok bool) {
	c.cpu.ChargeStorage(c.costs.DeltaEncode)
	c.Stats.EncodeOps++
	buf, ok := delta.AppendEncode(c.encBuf, target, base, c.cfg.DeltaThreshold)
	if !ok {
		return nil, false
	}
	return exactCopy(buf), true
}

// exactCopy returns a copy of b with cap == len: a retained delta owns
// its bytes and no slack (an append-based clone rounds its capacity up
// to an allocator size class; CheckInvariants holds deltaRAM to this).
func exactCopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// storeDelta installs enc as v's RAM delta, adjusting the segment-based
// budget and the dirty queue. Reports whether the budget could
// accommodate it.
func (c *Controller) storeDelta(v *vblock, enc []byte, dirty bool) bool {
	return c.storeDeltaOpt(v, enc, dirty, reclaimFull)
}

// storeDeltaBestEffort is storeDelta with only recursion-safe
// reclamation: it may drop cold clean deltas that also live in the log,
// but never evicts blocks (no device I/O, no recursion). Log-prefetch
// and recovery paths use it.
func (c *Controller) storeDeltaBestEffort(v *vblock, enc []byte, dirty bool) bool {
	return c.storeDeltaOpt(v, enc, dirty, reclaimDropOnly)
}

// reclaim modes for storeDeltaOpt.
type reclaimMode uint8

const (
	reclaimFull reclaimMode = iota
	reclaimDropOnly
)

func (c *Controller) storeDeltaOpt(v *vblock, enc []byte, dirty bool, mode reclaimMode) bool {
	newCost := c.segBytes(len(enc))
	// Reclamation can reach back into v itself: a journal commit groomed
	// mid-loop may re-cache v's own logged delta via loadDeltaBlock, or
	// drop the one it held. The cost v currently holds must therefore be
	// recomputed on every pass — sizing the reservation against an entry
	// snapshot leaks budget when the install below replaces a delta that
	// was charged after the snapshot.
	var oldCost int64
	for {
		oldCost = 0
		if v.deltaRAM != nil {
			oldCost = c.segBytes(len(v.deltaRAM))
		}
		if newCost <= oldCost {
			c.deltaBudget.Release(oldCost - newCost)
			break
		}
		if c.deltaBudget.Reserve(newCost - oldCost) {
			break
		}
		var ok bool
		switch mode {
		case reclaimDropOnly:
			ok = c.dropOneCleanDelta(v)
		default:
			ok = c.reclaimDeltaRAM(v)
		}
		if !ok {
			return false
		}
	}
	wasDirty := v.deltaDirty
	v.deltaRAM = enc
	v.deltaCRC = blockdev.ContentCRC(enc)
	v.deltaDirty = dirty
	if dirty {
		c.dirtyBytes += int64(len(enc))
		if wasDirty {
			// Replaced a dirty delta: its bytes were already queued;
			// adjust the outstanding estimate.
			c.dirtyBytes -= oldCost // approximation: remove old segment cost
			if c.dirtyBytes < 0 {
				c.dirtyBytes = 0
			}
		}
		if !v.inDirty {
			v.inDirty = true
			c.dirtyQ = append(c.dirtyQ, v)
		}
	}
	return true
}

// releaseDelta drops v's RAM delta and its budget reservation.
func (c *Controller) releaseDelta(v *vblock) {
	if v.deltaRAM == nil {
		return
	}
	c.deltaBudget.Release(c.segBytes(len(v.deltaRAM)))
	v.deltaRAM = nil
	v.deltaDirty = false
}

// dropOneCleanDelta frees delta RAM by discarding, from the LRU tail, a
// clean delta whose durable copy lives in the log. Pure RAM operation:
// no device I/O, safe from any context.
func (c *Controller) dropOneCleanDelta(keep *vblock) bool {
	for v := c.lru.tail; v != nil; v = v.prev {
		if v == keep || v == c.pinned || v.deltaRAM == nil || v.deltaDirty || !c.deltaLogged(v) {
			continue
		}
		c.releaseDelta(v)
		c.Stats.EvictDeltaRAM++
		return true
	}
	return false
}

// reclaimDeltaRAM frees delta-buffer space under pressure: first drop a
// clean RAM delta that also lives in the log (cheap), then flush dirty
// deltas to the log, then fall back to evicting a whole delta-carrying
// virtual block (the paper's delta replacement, §4.3). keep is exempt.
func (c *Controller) reclaimDeltaRAM(keep *vblock) bool {
	if c.dropOneCleanDelta(keep) {
		return true
	}
	if c.dirtyBytes > 0 || len(c.dirtyQ) > 0 {
		before := c.deltaBudget.Used()
		if err := c.commitJournal(); err == nil {
			// Flushing marks deltas clean; retry the drop pass.
			if c.dropOneCleanDelta(keep) || c.deltaBudget.Used() < before {
				return true
			}
		}
	}
	// Last resort: evict a whole non-reference block carrying a delta.
	for v := c.lru.tail; v != nil; v = v.prev {
		if v == keep || v == c.pinned || v.kind == Reference || (v.deltaRAM == nil && !c.deltaLogged(v)) {
			continue
		}
		if err := c.evictToHome(v); err == nil {
			return true
		}
	}
	return false
}

// deltaLogged reports whether the newest durable log record for v is a
// delta record (i.e. v's clean RAM delta can be dropped and reloaded).
func (c *Controller) deltaLogged(v *vblock) bool {
	return c.lbas[v.lba].rec.kind == entryDelta
}

// ensureMetadata keeps the tracked-block population within bounds by
// evicting from the LRU tail, skipping reference blocks (the paper's
// virtual-block replacement, §4.3).
func (c *Controller) ensureMetadata() error {
	for c.lru.len() >= c.cfg.MetadataBlocks {
		var victim *vblock
		for v := c.lru.tail; v != nil; v = v.prev {
			if v != c.pinned && v.kind != Reference {
				victim = v
				break
			}
		}
		if victim == nil {
			// Everything is a reference; demote the coldest.
			for v := c.lru.tail; v != nil; v = v.prev {
				if v != c.pinned {
					victim = v
					break
				}
			}
			if victim == nil {
				return nil
			}
		}
		if err := c.evictToHome(victim); err != nil {
			return err
		}
	}
	return nil
}

// evictToHome makes v's current content durable at its HDD home
// location, appends a tombstone so recovery ignores stale log entries,
// and drops the block's metadata.
func (c *Controller) evictToHome(v *vblock) error {
	if err := c.writeBackHome(v); err != nil {
		return err
	}
	// A tombstone tells recovery the home location is authoritative,
	// superseding any durable or pending delta/pointer record.
	rec := c.lbas[v.lba].rec
	if (rec.kind != entryNone && rec.kind != entryTombstone) || v.ssdCurrent || v.deltaDirty || v.inDirty {
		c.queueControl(logEntry{kind: entryTombstone, lba: v.lba})
	}
	c.Stats.WritebacksHome++
	c.dropVBlock(v)
	return nil
}

// writeBackHome makes v's current content durable at its HDD home
// location when the home copy is stale. hddWrite copies the content, so
// the scratch it was materialized into goes back before the return:
// every eviction loop (a log shed, a compaction, metadata and delta-RAM
// reclamation, the scan's demotions) holds one victim's worth at a time.
func (c *Controller) writeBackHome(v *vblock) error {
	if v.hddHome && !v.dataDirty {
		return nil
	}
	mark := c.scratchMark()
	defer c.releaseScratch(mark)
	content, _, _, err := c.materialize(v, nil, true)
	if err != nil {
		return err
	}
	return c.writeHome(v, content)
}

// writeHome writes content to v's HDD home location (background time).
func (c *Controller) writeHome(v *vblock, content []byte) error {
	d, err := c.hddWrite(v.lba, content)
	if err != nil {
		return fmt.Errorf("core: home write lba %d: %w", v.lba, err)
	}
	c.Stats.BackgroundHDDTime += d
	v.hddHome = true
	v.dataDirty = false
	return nil
}

// ResetStats zeroes the controller's accumulated statistics; internal
// state (references, deltas, LRU) is untouched. Harnesses call it after
// an unmeasured populate phase.
func (c *Controller) ResetStats() { c.Stats = Stats{} }
