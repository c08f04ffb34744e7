package core

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/delta"
	"icash/internal/ram"
	"icash/internal/sig"
	"icash/internal/sim"
)

// readPath classifies how a read was served, for statistics.
type readPath uint8

const (
	pathRAM readPath = iota
	pathSSD
	pathSSDLog
	pathHome
)

// periodic runs the per-I/O housekeeping: similarity scans every
// ScanPeriod I/Os (paper §4.2), periodic flushing, heatmap decay, and
// the background scrubber's schedule poll (a single comparison when
// scrubbing is disabled).
func (c *Controller) periodic() error {
	c.opCount++
	if c.cfg.HeatmapDecayOps > 0 && c.opCount%int64(c.cfg.HeatmapDecayOps) == 0 {
		c.heat.Decay()
	}
	if c.opCount%int64(c.cfg.ScanPeriod) == 0 {
		if err := c.scan(); err != nil {
			return err
		}
	}
	c.scrubPoll()
	return c.maybeFlush()
}

// touchLRU marks v most recently used. A reference is kept ahead of its
// associates in the queue because serving an associate also touches its
// reference (paper §4.3).
func (c *Controller) touchLRU(v *vblock) {
	c.lru.moveToFront(v)
	if v.kind == Associate && v.slotRef != nil && v.slotRef.donor >= 0 {
		if donor := c.lbas[v.slotRef.donor].v; donor != nil && donor.slotRef == v.slotRef {
			c.lru.moveToFront(donor)
		}
	}
}

// materialize returns v's current content and the synchronous latency
// of producing it. When background is true, device time is accounted to
// background stats instead. The content is built in dst when it is not
// nil, and otherwise in a scratch buffer (or a fresh one after a slot
// repair), valid until the release that covers it; it never aliases
// cached state.
func (c *Controller) materialize(v *vblock, dst []byte, background bool) ([]byte, sim.Duration, readPath, error) {
	if v.dataRAM != nil {
		return c.readData(v, c.scratchOr(dst)), ram.AccessLatency, pathRAM, nil
	}
	if v.slotRef != nil {
		if v.ssdCurrent {
			// Write-through block or pristine donor: the slot holds the
			// current content directly.
			content, lat, err := c.slotContent(v.slotRef, background)
			if err == nil && dst != nil {
				content = dst[:copy(dst, content)]
			}
			return content, lat, pathSSD, err
		}
		// Reference + delta. Fetch the delta (RAM, else one log read
		// that prefetches its whole packed block), then the base.
		if v.deltaRAM != nil && blockdev.ContentCRC(v.deltaRAM) != v.deltaCRC {
			// The cached delta rotted in RAM. A clean delta with a durable
			// journal copy is simply re-fetched; a dirty one (or one with
			// no durable copy) is unrecoverable — the block falls back to
			// its accounted stale home copy.
			c.noteCorruption("ram", v.lba)
			if !v.deltaDirty && c.deltaLogged(v) {
				c.releaseDelta(v)
				c.Stats.CorruptionsRepaired++
			} else {
				return nil, 0, pathSSD, c.dropCorruptDelta(v, blockdev.ErrCorruption)
			}
		}
		var lat sim.Duration
		path := pathSSD
		if v.deltaRAM == nil {
			rec := c.lbas[v.lba].rec
			if rec.kind != entryDelta {
				return nil, 0, pathSSD, fmt.Errorf("core: lba %d: delta lost (no RAM copy, no log record)", v.lba)
			}
			d, err := c.loadDeltaBlock(rec.block)
			if err != nil {
				if blockdev.Classify(err) == blockdev.ClassCorruption {
					return nil, 0, pathSSD, c.dropCorruptDelta(v, err)
				}
				return nil, 0, pathSSD, err
			}
			if background {
				c.Stats.BackgroundHDDTime += d
			} else {
				lat += d
			}
			path = pathSSDLog
		}
		base, d, err := c.slotContent(v.slotRef, background)
		if err != nil {
			return nil, 0, path, err
		}
		lat += d
		var enc []byte
		if v.deltaRAM != nil {
			enc = v.deltaRAM
		} else {
			// loadDeltaBlock may have failed to cache under budget
			// pressure; decode straight from the packed block copy.
			enc2, err := c.deltaFromLog(v.lba)
			if err != nil {
				if blockdev.Classify(err) == blockdev.ClassCorruption {
					return nil, 0, path, c.dropCorruptDelta(v, err)
				}
				return nil, 0, path, err
			}
			enc = enc2
		}
		content, err := delta.AppendDecode(c.scratchOr(dst)[:0], base, enc)
		if err == nil && len(content) != blockdev.BlockSize {
			err = fmt.Errorf("%w: decoded %d bytes", delta.ErrCorrupt, len(content))
		}
		if err != nil {
			return nil, 0, path, fmt.Errorf("core: lba %d: %w", v.lba, err)
		}
		c.cpu.ChargeStorage(c.costs.DeltaDecode)
		c.Stats.DecodeOps++
		if !background {
			lat += c.costs.DeltaDecode
		}
		return content, lat, path, nil
	}
	if v.hddHome {
		buf := c.scratchOr(dst)
		d, err := c.readHomeVerified(v.lba, buf)
		if err != nil {
			return nil, 0, pathHome, err
		}
		if background {
			c.Stats.BackgroundHDDTime += d
			d = 0
		}
		return buf, d, pathHome, nil
	}
	return nil, 0, pathHome, fmt.Errorf("core: lba %d has no recoverable content", v.lba)
}

// deltaFromLog re-reads v's delta bytes from its durable log record
// (slow path used only when the RAM budget rejected the prefetch).
func (c *Controller) deltaFromLog(lba int64) ([]byte, error) {
	rec := c.lbas[lba].rec
	if rec.kind != entryDelta {
		return nil, fmt.Errorf("core: lba %d: no durable delta record", lba)
	}
	// Pooled: decodeLogBlock copies every entry's delta bytes out.
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	d, err := c.hddRead(c.cfg.VirtualBlocks+rec.block, buf)
	if err != nil {
		return nil, err
	}
	c.Stats.BackgroundHDDTime += d
	_, entries, err := decodeLogBlock(buf)
	if err != nil {
		c.noteCorruption("hdd", c.cfg.VirtualBlocks+rec.block)
		return nil, fmt.Errorf("core: log block %d: %w: %w", rec.block, err, blockdev.ErrCorruption)
	}
	for i := range entries {
		if entries[i].seq == rec.seq && entries[i].lba == lba {
			return entries[i].delta, nil
		}
	}
	// The block decoded as a valid (foreign) log block but the expected
	// record is not in it: a misdirected or lost journal write. Classed
	// as corruption so the caller drops the delta as accounted loss.
	c.noteCorruption("hdd", c.cfg.VirtualBlocks+rec.block)
	return nil, fmt.Errorf("core: lba %d: log record vanished: %w", lba, blockdev.ErrCorruption)
}

// ReadBlock services a host read (paper Figure 1c: combine the delta
// with its reference block).
func (c *Controller) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, c.cfg.VirtualBlocks); err != nil {
		return 0, err
	}
	if err := blockdev.CheckBuffer(buf); err != nil {
		return 0, err
	}
	l := &c.lbas[lba]
	if l.poison {
		return 0, errPoisoned(lba)
	}
	c.releaseScratch(0) // previous request's scratch buffers are dead now
	if err := c.periodic(); err != nil {
		// Whole-SSD loss surfacing from background work (scan, flush)
		// degrades the array but does not fail the host request.
		if !c.maybeDegradeSSD(err) {
			return 0, err
		}
	}
	c.cpu.ChargeStorage(c.costs.PerRequest)
	if c.ssdLost {
		c.Stats.DegradedOps++
	} else if c.ssdQuarantined {
		c.Stats.QuarantinedOps++
	}

	v, lat, err := c.getOrLoad(lba, false)
	if err != nil {
		return 0, err
	}
	c.pinned = v
	defer func() { c.pinned = nil }()
	content, lat2, path, err := c.materialize(v, buf, false)
	if err != nil && c.faultRecovered(v, err) {
		// The failing dependency is gone (SSD degraded away, or the
		// block was salvaged to its home location); one retry serves
		// from what remains.
		content, lat2, path, err = c.materialize(v, buf, false)
	}
	if err != nil {
		return 0, err
	}
	lat += lat2
	// End-to-end verification: the bytes about to be served must match
	// the checksum recorded at the block's last host write. This is the
	// last line of defense — it catches whatever slipped past the
	// per-layer checks (e.g. RAM rot in the data cache). Dirty blocks are
	// exempt: their RAM copy *is* the content the checksum was taken of.
	if l.sumOK && !v.dataDirty && blockdev.ContentCRC(content) != l.sum {
		c.noteCorruption("host", lba)
		// Drop the bad cached copy and rebuild from the durable layers,
		// which verify themselves.
		c.releaseData(v)
		content, lat2, path, err = c.materialize(v, buf, false)
		if err != nil && c.faultRecovered(v, err) {
			content, lat2, path, err = c.materialize(v, buf, false)
		}
		if err != nil {
			return 0, err
		}
		lat += lat2
		// Re-fetch the expected sum: the rebuild may have dropped the
		// delta as accounted loss, untracking the block.
		if l.sumOK && blockdev.ContentCRC(content) != l.sum {
			c.poisonLBA(lba)
			return 0, errPoisoned(lba)
		}
		c.Stats.CorruptionsRepaired++
	}
	switch path {
	case pathRAM:
		c.Stats.ReadRAMHits++
	case pathSSD:
		c.Stats.ReadSSDHits++
	case pathSSDLog:
		// counted by loadDeltaBlock
	case pathHome:
		// counted by getOrLoad for cold misses; re-reads after data
		// eviction land here too.
	}
	// Cache the materialized content for future hits.
	if v.dataRAM == nil {
		if err := c.cacheData(v, content, false); err != nil {
			return 0, err
		}
	}
	c.heat.Record(v.sigv)
	c.touchLRU(v)
	if lat == 0 {
		lat = ram.AccessLatency
	}
	c.Stats.NoteRead(blockdev.BlockSize, lat)
	return lat, nil
}

// WriteBlock services a host write (paper Figure 1b: derive the delta
// with respect to the reference block). Delta derivation is overlapped
// with I/O processing (§5.1), so an accepted delta write completes at
// RAM speed; the encode cost is charged to the CPU model.
func (c *Controller) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, c.cfg.VirtualBlocks); err != nil {
		return 0, err
	}
	if err := blockdev.CheckBuffer(buf); err != nil {
		return 0, err
	}
	c.releaseScratch(0)
	if err := c.periodic(); err != nil {
		if !c.maybeDegradeSSD(err) {
			return 0, err
		}
	}
	c.cpu.ChargeStorage(c.costs.PerRequest)
	if c.ssdLost {
		c.Stats.DegradedOps++
	} else if c.ssdQuarantined {
		c.Stats.QuarantinedOps++
	}

	v, _, err := c.getOrLoad(lba, true)
	if err != nil {
		return 0, err
	}
	c.pinned = v
	defer func() { c.pinned = nil }()
	newSig := sig.Compute(buf)
	c.cpu.ChargeStorage(c.costs.Signature)
	c.heat.Record(newSig)

	dispatch := func() (sim.Duration, error) {
		if v.slotRef != nil {
			return c.writeAttached(v, buf, newSig)
		}
		return c.writeIndependent(v, buf, newSig)
	}
	lat, err := dispatch()
	if err != nil && c.faultRecovered(v, err) {
		lat, err = dispatch()
	}
	if err != nil {
		// The block's durable content is indeterminate after a failed
		// write; stop verifying against the stale checksum.
		c.dropSum(lba)
		return 0, err
	}
	// The accepted write defines the block's expected content from here
	// on (and clears any poison: known-good bytes are installed again).
	c.trackSum(lba, buf)
	c.touchLRU(v)
	c.Stats.NoteWrite(blockdev.BlockSize, lat)
	return lat, nil
}

// writeAttached updates a block bound to an SSD slot: re-derive the
// delta against the immutable slot content; oversized deltas write
// through to the SSD (paper §5.3).
func (c *Controller) writeAttached(v *vblock, buf []byte, newSig sig.Signature) (sim.Duration, error) {
	base, _, err := c.slotContent(v.slotRef, true)
	if err != nil {
		return 0, err
	}
	enc, ok := c.encodeDelta(buf, base)
	if ok && c.storeDelta(v, enc, true) {
		if v.slotRef.donor == v.lba {
			c.setKind(v, Reference)
			v.ssdCurrent = false // the reference now carries a self-delta
		} else {
			c.setKind(v, Associate)
			// The signature keeps referring to the reference content
			// (paper §4.3): the association, not the new bytes, defines
			// the block's identity in the heatmap.
		}
		v.hddHome = false
		if err := c.cacheData(v, buf, false); err != nil {
			return 0, err
		}
		c.Stats.WriteDelta++
		c.Stats.NoteDelta(len(enc))
		if err := c.maybeFlush(); err != nil {
			return 0, err
		}
		return ram.AccessLatency, nil
	}
	// Delta too large (or no delta RAM left): direct SSD write.
	c.Stats.ScanDeltaRejects++
	v.sigv = newSig
	return c.writeThroughSSD(v, buf)
}

// writeIndependent updates an unattached block. Per Figure 1b the write
// path always performs similarity detection first: if a reference with
// a close signature accepts a small delta, the block attaches; if the
// delta would exceed the threshold (or no reference matches), the new
// data is written directly to the SSD, releasing delta-buffer space
// (§5.3) — this is the source of I-CASH's residual SSD writes in
// Table 6. Only when no SSD slot can be found does the write stay in a
// RAM data block.
func (c *Controller) writeIndependent(v *vblock, buf []byte, newSig sig.Signature) (sim.Duration, error) {
	v.sigv = newSig // independents re-sign on every write (paper §4.3)
	if c.ssdSidelined() {
		// HDD-only degraded mode, or a fail-slow SSD under quarantine:
		// no similarity detection, no write-through — plain RAM + home
		// semantics keep new traffic off the sidelined device.
		c.setKind(v, Independent)
		v.hddHome = false
		if err := c.cacheData(v, buf, true); err != nil {
			return 0, err
		}
		c.Stats.WriteIndependent++
		return ram.AccessLatency, nil
	}
	if s := c.findSimilarSlot(newSig); s != nil {
		base, _, err := c.slotContent(s, true)
		if err != nil {
			return 0, err
		}
		enc, ok := c.encodeDelta(buf, base)
		if ok && c.storeDelta(v, enc, true) {
			c.attachSlot(v, s)
			c.promoteDonor(s)
			c.setKind(v, Associate)
			v.sigv = s.sigv
			v.hddHome = false
			if err := c.cacheData(v, buf, false); err != nil {
				return 0, err
			}
			c.Stats.WriteDelta++
			c.Stats.AssocFormed++
			c.Stats.NoteDelta(len(enc))
			if err := c.maybeFlush(); err != nil {
				return 0, err
			}
			return ram.AccessLatency, nil
		}
		c.Stats.ScanDeltaRejects++
	}
	// No delta representation possible: direct SSD write (§5.3).
	if len(c.freeSlots) > 0 || c.canReclaimSlot() {
		return c.writeThroughSSD(v, buf)
	}
	c.setKind(v, Independent)
	v.hddHome = false
	if err := c.cacheData(v, buf, true); err != nil {
		return 0, err
	}
	c.Stats.WriteIndependent++
	return ram.AccessLatency, nil
}

// tryFirstLoadPair attempts first-load similarity pairing (paper §4.2
// case 1): a freshly loaded block is compared against blocks at the
// same VM-image offset. A candidate that is already attached shares its
// reference slot; a similar *independent* candidate — the native
// machine's block before any clone touched it — is promoted to a
// reference on the spot, which is how VM-image clones bootstrap into
// reference + tiny delta without waiting for popularity to accumulate.
// content is v's current content, which it keeps cached.
func (c *Controller) tryFirstLoadPair(v *vblock, content []byte) {
	key := c.offsetKey(v.lba)
	if key < 0 || c.ssdSidelined() {
		return
	}
	// Each candidate's content is copied by the time the next one starts
	// (ssdWrite and hddWrite in installReference, encodeDelta against the
	// slot), so its scratch goes back per candidate.
	const maxCandidates = 3
	tried := 0
	mark := c.scratchMark()
	defer c.releaseScratch(mark)
	for _, cand := range c.sameOffset[key] {
		if cand == v || cand.dead {
			continue
		}
		if sig.Distance(v.sigv, cand.sigv) > c.cfg.MaxSigDistance {
			continue
		}
		if tried++; tried > maxCandidates {
			return
		}
		c.releaseScratch(mark)
		s := cand.slotRef
		if s == nil {
			// Independent sibling: promote it to a reference first.
			content, _, _, err := c.materialize(cand, nil, true)
			if err != nil {
				continue
			}
			s, err = c.installReference(cand, content)
			if err != nil || s == nil {
				continue
			}
		} else if cand.kind == Independent && !cand.ssdCurrent {
			continue
		}
		base, _, err := c.slotContent(s, true)
		if err != nil {
			continue
		}
		enc, ok := c.encodeDelta(content, base)
		if !ok {
			c.Stats.ScanDeltaRejects++
			continue
		}
		if !c.storeDelta(v, enc, true) {
			return
		}
		c.attachSlot(v, s)
		c.promoteDonor(s)
		c.setKind(v, Associate)
		v.sigv = s.sigv // identity now refers to the reference
		c.Stats.FirstLoadPairs++
		c.Stats.AssocFormed++
		c.Stats.NoteDelta(len(enc))
		return
	}
}

var _ blockdev.Device = (*Controller)(nil)
