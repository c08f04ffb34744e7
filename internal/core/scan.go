package core

import (
	"cmp"
	"slices"

	"icash/internal/blockdev"
	"icash/internal/sig"
	"icash/internal/sim"
)

// scanCand is one scan-window block with its Heatmap popularity.
type scanCand struct {
	v   *vblock
	pop uint64
}

// maxSlotProbe bounds the slots one similarity probe measures.
const maxSlotProbe = 256

// scan is the periodic similarity-detection phase (paper §4.2): every
// ScanPeriod I/Os the controller examines up to ScanWindow blocks from
// the head of the LRU queue, computes each block's Heatmap popularity,
// selects the most popular unattached blocks as new references, and
// delta-attaches the remaining similar blocks to references. The
// association between reference and delta blocks is reorganized at the
// end of each scanning phase.
//
// scan itself is the accounting: the modelled controller examines the
// window on every scan, so the count, the candidates and the storage-CPU
// charge are taken whatever the window holds. The host runs scanBody
// only when the window has a block it could act on.
func (c *Controller) scan() error {
	if c.ssdSidelined() {
		// HDD-only degraded mode (nowhere to install references), or a
		// quarantined fail-slow SSD (keep reorganization traffic off it).
		return nil
	}
	c.Stats.Scans++
	n := min(c.lru.len(), c.cfg.ScanWindow)
	if n == 0 {
		return nil
	}
	c.Stats.ScanCandidates += int64(n)
	c.cpu.ChargeStorage(c.costs.ScanPerBlock * sim.Duration(n))
	if c.scanWindowIdle() {
		return nil
	}
	return c.scanBody()
}

// scanWindowIdle reports whether every block in the scan window is
// already attached to a slot. scanBody acts only on blocks with no slot
// (every other candidate is skipped before anything is changed, and the
// demotion valve needs a failed install), so on an idle window it is a
// no-op. The list's unattached count answers for the whole LRU in O(1);
// when unattached blocks exist somewhere, one walk of the window finds
// whether any of them is inside it.
func (c *Controller) scanWindowIdle() bool {
	if c.lru.unattached == 0 {
		return true
	}
	for v, n := c.lru.head, 0; v != nil && n < c.cfg.ScanWindow; v, n = v.next, n+1 {
		if v.slotRef == nil {
			return false
		}
	}
	return true
}

// scanBody is the scan's work on the non-empty window scan has
// accounted for: rank it by popularity, then attach or promote its
// unattached blocks.
func (c *Controller) scanBody() error {
	// Popularity of every block in the scan window (the LRU head), and
	// identical-signature groups: two blocks sharing an exact signature
	// are the strongest similarity signal and always justify a
	// reference. Both live in per-controller scratch, emptied on the way
	// out so a block dropped later is not held by it.
	cands, sigGroup := c.scanCands[:0], c.scanSigGroup
	mark := c.scratchMark()
	defer func() {
		clear(cands)
		clear(sigGroup)
		c.scanCands = cands[:0]
		c.releaseScratch(mark)
	}()
	var popSum uint64
	for v := c.lru.head; v != nil && len(cands) < c.cfg.ScanWindow; v = v.next {
		p := c.heat.Popularity(v.sigv)
		cands = append(cands, scanCand{v: v, pop: p})
		popSum += p
		sigGroup[v.sigv]++
	}
	popBar := 2 * popSum / uint64(len(cands)) // twice the window mean

	// Most popular first; ties broken by LBA for determinism (a total
	// order, so an unstable sort has one answer).
	slices.SortFunc(cands, func(a, b scanCand) int {
		if a.pop != b.pop {
			return cmp.Compare(b.pop, a.pop)
		}
		return cmp.Compare(a.v.lba, b.v.lba)
	})

	// Each candidate's content is copied by the time the next one starts
	// (encodeDelta and cacheData in tryAttach; ssdWrite and hddWrite in
	// installReference), so its scratch goes back per candidate.
	installFailed := 0
	for _, cd := range cands {
		v := cd.v
		if v.dead {
			continue // evicted by reclamation earlier in this scan
		}
		if v.slotRef != nil {
			continue // already a reference, associate or write-through
		}
		c.releaseScratch(mark)
		// Find the closest existing reference slot by signature.
		best := c.scanSimilarSlot(v.sigv)
		if best != nil {
			if ok, err := c.tryAttach(v, best); err != nil {
				if blockdev.Classify(err) == blockdev.ClassMedia {
					continue // unscrubable candidate; skip, don't abort the scan
				}
				return err
			} else if ok {
				continue
			}
		}
		// No attachable reference: promote to reference if the content
		// is popular enough — shared by an identical-signature sibling
		// in the window, or well above the window's mean popularity.
		promote := sigGroup[v.sigv] > 1 || (cd.pop > popBar && cd.pop >= 16)
		if !promote {
			continue
		}
		content, _, _, err := c.materialize(v, true)
		if err != nil {
			if blockdev.Classify(err) == blockdev.ClassMedia {
				continue
			}
			return err
		}
		s, err := c.installReference(v, content)
		if err != nil {
			return err
		}
		if s == nil {
			installFailed++
		}
	}

	// Reorganization pressure valve: when this scan wanted to install
	// fresher references but the SSD was full, demote the coldest
	// donor-only references to make room for the next scan.
	if installFailed > 0 && len(c.freeSlots) == 0 {
		demoted := 0
		for v := c.lru.tail; v != nil && demoted < 8; {
			prev := v.prev
			if v.kind == Reference && v.slotRef != nil && v.slotRef.refcnt == 1 {
				if err := c.evictToHome(v); err != nil {
					return err
				}
				c.Stats.RefsDemoted++
				demoted++
			}
			v = prev
		}
	}
	return nil
}

// findSimilarSlot returns the live reference slot whose content
// signature is closest to sigv (within MaxSigDistance), or nil. The
// probe count is bounded so per-request similarity detection stays
// cheap. It is the write path's probe and the definition the scan's
// probe index (scanSimilarSlot) answers to.
func (c *Controller) findSimilarSlot(sigv sig.Signature) *refSlot {
	var best *refSlot
	bestDist := c.cfg.MaxSigDistance + 1
	probes := 0
	for _, s := range c.liveSlots() {
		if probes++; probes > maxSlotProbe {
			break
		}
		if d := sig.Distance(sigv, s.sigv); d < bestDist {
			best, bestDist = s, d
			if d == 0 {
				break
			}
		}
	}
	return best
}

// tryAttach delta-encodes v against slot s and attaches it as an
// associate when the delta fits the threshold.
func (c *Controller) tryAttach(v *vblock, s *refSlot) (bool, error) {
	base, _, err := c.slotContent(s, true)
	if err != nil {
		return false, err
	}
	content, _, _, err := c.materialize(v, true)
	if err != nil {
		return false, err
	}
	enc, ok := c.encodeDelta(content, base)
	if !ok {
		c.Stats.ScanDeltaRejects++
		return false, nil
	}
	// Keep the full content cached before rebinding, then store the
	// delta as the authoritative representation.
	if v.dataRAM == nil {
		if err := c.cacheData(v, content, false); err != nil {
			return false, err
		}
	}
	if !c.storeDelta(v, enc, true) {
		return false, nil
	}
	c.attachSlot(v, s)
	c.promoteDonor(s)
	c.setKind(v, Associate)
	v.sigv = s.sigv // identity now refers to the reference content
	v.dataDirty = false
	c.Stats.AssocFormed++
	c.Stats.NoteDelta(len(enc))
	return true, nil
}
