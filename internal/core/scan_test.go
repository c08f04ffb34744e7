package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/sig"
	"icash/internal/sim"
)

// writeSimilarSet writes n blocks derived from one template (small
// per-block differences), then reads them all twice so the scan sees a
// popular content family.
func writeSimilarSet(t *testing.T, c *Controller, n int64, seed uint64) [][]byte {
	t.Helper()
	template := make([]byte, blockdev.BlockSize)
	sim.NewRand(seed).Bytes(template)
	contents := make([][]byte, n)
	for lba := int64(0); lba < n; lba++ {
		b := append([]byte(nil), template...)
		for j := 0; j < 24; j++ {
			b[200+j] = byte(lba >> (j % 8))
		}
		contents[lba] = b
		if _, err := c.WriteBlock(lba, b); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, blockdev.BlockSize)
	for pass := 0; pass < 2; pass++ {
		for lba := int64(0); lba < n; lba++ {
			if _, err := c.ReadBlock(lba, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return contents
}

func TestScanBuildsReferences(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	writeSimilarSet(t, c, 600, 77)
	k := c.KindCounts()
	if k.Reference == 0 {
		t.Fatal("scan never selected a reference")
	}
	if k.Associate < 400 {
		t.Fatalf("only %d associates of 600 similar blocks", k.Associate)
	}
	if c.Stats.AvgDeltaSize() > 512 {
		t.Fatalf("avg delta %f too large for near-identical blocks", c.Stats.AvgDeltaSize())
	}
	// SSD economy: many logical blocks per SSD slot.
	covered := k.Reference + k.Associate
	if slots := c.LiveSlotCount(); covered < 3*slots {
		t.Errorf("coverage %d blocks over %d slots: expected delta sharing", covered, slots)
	}
}

func TestReferenceAheadOfAssociatesInLRU(t *testing.T) {
	// Paper §4.3: a reference block is always ahead of its associates in
	// the LRU queue because serving an associate touches the reference.
	rig := newTestRig(t, smallConfig())
	c := rig.c
	writeSimilarSet(t, c, 200, 5)
	buf := make([]byte, blockdev.BlockSize)
	// Touch a specific associate; its reference donor must be at least
	// as recent.
	var assoc *vblock
	for v := c.lru.head; v != nil; v = v.next {
		if v.kind == Associate && v.slotRef != nil && v.slotRef.donor >= 0 {
			if c.lbas[v.slotRef.donor].v != nil {
				assoc = v
				break
			}
		}
	}
	if assoc == nil {
		t.Skip("no associate with live donor")
	}
	if _, err := c.ReadBlock(assoc.lba, buf); err != nil {
		t.Fatal(err)
	}
	donor := c.lbas[assoc.slotRef.donor].v
	// Walk from the head: the donor must appear before the associate.
	for v := c.lru.head; v != nil; v = v.next {
		if v == donor {
			return // donor first: ordering holds
		}
		if v == assoc {
			t.Fatal("associate ahead of its reference in the LRU queue")
		}
	}
	t.Fatal("blocks missing from LRU")
}

func TestWriteThroughOnIncompressible(t *testing.T) {
	rig := newTestRig(t, smallConfig())
	c := rig.c
	writeSimilarSet(t, c, 300, 9)
	before := rig.ssd.Stats.Writes
	// Overwrite attached blocks with unrelated content: deltas exceed
	// the threshold, so the new data goes straight to the SSD (§5.3).
	r := sim.NewRand(10)
	fresh := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < 50; lba++ {
		r.Bytes(fresh)
		if _, err := c.WriteBlock(lba, fresh); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats.WriteThroughSSD == 0 {
		t.Fatal("incompressible writes never took the write-through path")
	}
	if rig.ssd.Stats.Writes == before {
		t.Fatal("write-through did not reach the SSD device")
	}
}

func TestHeatmapDecayTriggered(t *testing.T) {
	cfg := smallConfig()
	cfg.HeatmapDecayOps = 500
	rig := newTestRig(t, cfg)
	c := rig.c
	writeSimilarSet(t, c, 300, 13)
	var s = c.lbas[0].v.sigv
	popMid := c.heat.Popularity(s)
	// Idle accesses to unrelated blocks: decay halves old popularity.
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < 1200; i++ {
		c.ReadBlock(int64(2000+i%100), buf)
	}
	if got := c.heat.Popularity(s); got >= popMid {
		t.Fatalf("popularity %d did not decay from %d", got, popMid)
	}
}

func TestSelfDeltaOnReference(t *testing.T) {
	// A written reference block keeps its SSD content and accumulates a
	// self-delta (§4.3): associates must still decode correctly.
	rig := newTestRig(t, smallConfig())
	c := rig.c
	contents := writeSimilarSet(t, c, 100, 17)

	// Find a donor (reference) and one of its associates.
	var donor, assoc *vblock
	for v := c.lru.head; v != nil; v = v.next {
		if v.kind == Reference && v.slotRef != nil && v.slotRef.refcnt > 1 {
			donor = v
			break
		}
	}
	if donor == nil {
		t.Skip("no shared reference formed")
	}
	for v := c.lru.head; v != nil; v = v.next {
		if v.kind == Associate && v.slotRef == donor.slotRef {
			assoc = v
			break
		}
	}
	if assoc == nil {
		t.Skip("no associate on the shared reference")
	}

	// Write the reference: small change -> self delta.
	mod := append([]byte(nil), contents[donor.lba]...)
	mod[50] ^= 0xFF
	if _, err := c.WriteBlock(donor.lba, mod); err != nil {
		t.Fatal(err)
	}
	if donor.ssdCurrent {
		t.Fatal("written reference should carry a self-delta")
	}
	// Both read back correctly.
	buf := make([]byte, blockdev.BlockSize)
	if _, err := c.ReadBlock(donor.lba, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, mod) {
		t.Fatal("reference self-delta decode wrong")
	}
	if _, err := c.ReadBlock(assoc.lba, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, contents[assoc.lba]) {
		t.Fatal("associate corrupted by reference write")
	}
}

func TestDataRAMEvictionKeepsCorrectness(t *testing.T) {
	cfg := smallConfig()
	cfg.DataRAMBytes = 8 << 10 // two blocks: constant data eviction
	rig := newTestRig(t, cfg)
	c := rig.c
	contents := writeSimilarSet(t, c, 120, 19)
	if c.Stats.EvictDataRAM == 0 {
		t.Fatal("expected data-RAM evictions")
	}
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < 120; lba++ {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, contents[lba]) {
			t.Fatalf("lba %d wrong after data eviction", lba)
		}
	}
}

func TestLRUListOps(t *testing.T) {
	var l lruList
	a, b, c := &vblock{lba: 1}, &vblock{lba: 2}, &vblock{lba: 3}
	l.pushFront(a)
	l.pushFront(b)
	l.pushFront(c) // order: c b a
	if l.len() != 3 || l.head != c || l.tail != a {
		t.Fatal("push order wrong")
	}
	l.moveToFront(a) // a c b
	if l.head != a || l.tail != b {
		t.Fatal("moveToFront wrong")
	}
	l.moveToFront(a) // no-op
	if l.head != a {
		t.Fatal("moveToFront head no-op wrong")
	}
	l.remove(c) // a b
	if l.len() != 2 || a.next != b || b.prev != a {
		t.Fatal("remove middle wrong")
	}
	l.remove(a)
	l.remove(b)
	if l.len() != 0 || l.head != nil || l.tail != nil {
		t.Fatal("list not empty")
	}
}

// scanFootprint is everything a scan can change, by value: the counters,
// the storage-CPU charge, the heatmap, every live slot, slotOrder, each
// LRU block in order with the fields a scan rebinds, and the commit
// buffer (dirty queue and pending control records).
type scanFootprint struct {
	stats    Stats
	cpu      sim.Duration
	heat     sig.Heatmap
	slots    []refSlot
	order    []*refSlot
	blocks   []blockFootprint
	dirtyQ   []*vblock
	dirty    int64
	controls int
	free     []int64
	quar     []int64
}

type blockFootprint struct {
	v                               *vblock
	slot                            *refSlot
	sigv                            sig.Signature
	kind                            Kind
	resident, delta                 bool
	dataDirty, deltaDirty, ssdFresh bool
}

func takeScanFootprint(c *Controller) scanFootprint {
	f := scanFootprint{
		stats:    c.Stats,
		cpu:      c.cpu.StorageTime,
		heat:     *c.heat,
		order:    slices.Clone(c.slotOrder),
		dirtyQ:   slices.Clone(c.dirtyQ),
		dirty:    c.dirtyBytes,
		controls: len(c.control),
		free:     slices.Clone(c.freeSlots),
		quar:     slices.Clone(c.quarantine),
	}
	for _, s := range c.slotTab {
		if s == nil {
			s = &refSlot{}
		}
		f.slots = append(f.slots, *s)
	}
	for v := c.lru.head; v != nil; v = v.next {
		f.blocks = append(f.blocks, blockFootprint{v, v.slotRef, v.sigv, v.kind,
			v.dataRAM != nil, v.deltaRAM != nil, v.dataDirty, v.deltaDirty, v.ssdCurrent})
	}
	return f
}

// diff names the first part of the footprint that differs, "" if none.
func (f scanFootprint) diff(g scanFootprint) string {
	switch {
	case f.stats != g.stats:
		return fmt.Sprintf("Stats: %+v, was %+v", g.stats, f.stats)
	case f.cpu != g.cpu:
		return fmt.Sprintf("StorageCPUTime: %v, was %v", g.cpu, f.cpu)
	case f.heat != g.heat:
		return "the heatmap"
	case !slices.Equal(f.slots, g.slots):
		return "the slot table"
	case !slices.Equal(f.order, g.order):
		return "slotOrder"
	case !slices.Equal(f.blocks, g.blocks):
		return "the LRU (order, attachment, kind, signature or residency)"
	case !slices.Equal(f.dirtyQ, g.dirtyQ) || f.dirty != g.dirty || f.controls != g.controls:
		return "the commit buffer"
	case !slices.Equal(f.free, g.free) || !slices.Equal(f.quar, g.quar):
		return "the free or quarantined slots"
	}
	return ""
}

// TestIdleScanBodyIsNoOp is the proof that skipping the scan body on an
// attached window is exact: run directly on such a window — with no
// unattached block anywhere, and with the only ones outside the window —
// the body changes nothing a scan can change, so the gated scan differs
// from it by the accounting alone. The mirror case: orphan one window
// block and the next scan runs the body and attaches it again.
func TestIdleScanBodyIsNoOp(t *testing.T) {
	cfg := smallConfig()
	cfg.ScanPeriod = 1 << 30 // scans happen where the test calls them
	rig := newTestRig(t, cfg)
	c := rig.c
	writeSimilarSet(t, c, 300, 77)
	if err := c.scan(); err != nil {
		t.Fatal(err)
	}
	// What the scan left unattached writes through with unrelated
	// content, so every tracked block has a slot.
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < 300; lba++ {
		if c.lbas[lba].v.slotRef == nil {
			fillByLBA(lba, buf)
			if _, err := c.WriteBlock(lba, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	k := c.KindCounts()
	if c.lru.unattached != 0 || k.Associate < 100 || k.Reference == 0 {
		t.Fatalf("rig: %d unattached blocks, kinds %+v; want a fully attached LRU of references and associates", c.lru.unattached, k)
	}

	idle := func(name string) {
		t.Helper()
		if !c.scanWindowIdle() {
			t.Fatalf("%s: window not idle", name)
		}
		before := takeScanFootprint(c)
		if err := c.scanBody(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := before.diff(takeScanFootprint(c)); d != "" {
			t.Fatalf("%s: the scan body on an attached window changed %s", name, d)
		}
		if len(c.scanSigGroup) != 0 || len(c.scanCands) != 0 {
			t.Fatalf("%s: the scan body left %d signature groups and %d candidates behind", name, len(c.scanSigGroup), len(c.scanCands))
		}
		// The gated scan: the accounting and nothing else.
		n := min(c.lru.len(), c.cfg.ScanWindow)
		if err := c.scan(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before.stats.Scans++
		before.stats.ScanCandidates += int64(n)
		before.cpu += c.costs.ScanPerBlock * sim.Duration(n)
		if d := before.diff(takeScanFootprint(c)); d != "" {
			t.Fatalf("%s: past its accounting, an idle scan changed %s", name, d)
		}
	}
	idle("nothing unattached")

	// Unattached blocks, all colder than the window: the count is no
	// longer zero and the window walk answers.
	c.cfg.ScanWindow = 100
	for lba := int64(1000); lba < 1005; lba++ {
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	for lba := int64(0); lba < 150; lba++ { // bury them under attached blocks
		if _, err := c.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	if c.lru.unattached == 0 {
		t.Fatal("rig: the cold reads left nothing unattached")
	}
	idle("unattached blocks outside the window")

	// The mirror: one window block loses its slot, and the next scan has
	// work. Its content is a family member's, so the body re-attaches it.
	var v *vblock
	for b := c.lru.head; b != nil; b = b.next {
		if b.kind == Associate && b.dataRAM != nil {
			v = b
			break
		}
	}
	if v == nil {
		t.Fatal("rig: no resident associate in the window")
	}
	if err := c.writeHome(v, c.readData(v, make([]byte, blockdev.BlockSize))); err != nil {
		t.Fatal(err)
	}
	c.orphanFromSlot(v)
	if c.scanWindowIdle() {
		t.Fatal("an orphaned window block left the window idle")
	}
	formed := c.Stats.AssocFormed
	if err := c.scan(); err != nil {
		t.Fatal(err)
	}
	if v.slotRef == nil || v.kind != Associate || c.Stats.AssocFormed != formed+1 {
		t.Fatalf("the scan after an orphaning did not run its body: lba %d is %v with slot %v, %d associations formed",
			v.lba, v.kind, v.slotRef, c.Stats.AssocFormed-formed)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
