package core

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/fault"
	"icash/internal/sig"
	"icash/internal/sim"
)

// The walks that the similarity probe, write-through reclaim and the
// scan's candidate filter used to be, kept as the oracles for the
// maintained state that answers them now (the compacted-on-death
// slotOrder, the write-through sublist, the unattached count). None of
// them changes the controller.

// findSimilarSlotWalk is the probe over a freshly filtered slotOrder:
// liveness is decided per entry, with the slots-map lookup, and the
// budget counts live entries only — what compacting on every call gave.
func (c *Controller) findSimilarSlotWalk(sigv sig.Signature) *refSlot {
	var best *refSlot
	bestDist := c.cfg.MaxSigDistance + 1
	probes := 0
	for _, s := range c.slotOrder {
		if s.refcnt <= 0 || c.slotTab[s.index] != s {
			continue
		}
		if probes++; probes > maxSlotProbe {
			break
		}
		d := 0
		for i := range sigv {
			if sigv[i] != s.sigv[i] {
				d++
			}
		}
		if d < bestDist {
			best, bestDist = s, d
			if d == 0 {
				break
			}
		}
	}
	return best
}

// writeThroughVictimWalk is the tail walk reclaimWriteThrough made, and
// reclaimSlot's first pick.
func (c *Controller) writeThroughVictimWalk() *vblock {
	for v := c.lru.tail; v != nil; v = v.prev {
		if v == c.pinned || v.slotRef == nil || v.kind != Independent {
			continue
		}
		return v
	}
	return nil
}

// canReclaimSlotWalk is canReclaimSlot as one tail walk.
func (c *Controller) canReclaimSlotWalk() bool {
	for v := c.lru.tail; v != nil; v = v.prev {
		if v == c.pinned || v.slotRef == nil {
			continue
		}
		if v.kind == Independent {
			return true
		}
		if v.kind == Reference && v.slotRef.refcnt == 1 {
			return true
		}
	}
	return false
}

// scanWindowUnattachedWalk counts what the scan's candidate loop would
// not skip: the blocks with no slot among the first ScanWindow LRU
// nodes, every one of them visited.
func (c *Controller) scanWindowUnattachedWalk() int {
	n, unattached := 0, 0
	for v := c.lru.head; v != nil && n < c.cfg.ScanWindow; v = v.next {
		if v.slotRef == nil {
			unattached++
		}
		n++
	}
	return unattached
}

// TestMaintainedStateMatchesWalks drives a seeded mix through every way
// a slot comes to life, dies or is resurrected and a block becomes or
// stops being a write-through — similar and incompressible writes,
// rewrites of write-throughs, reads, flushes, scans, forced reclaims and
// evictions, SSD program failures and read errors that retire slots, an
// SSD quarantine, a crash recovery — on a 64-slot SSD with delta RAM
// tight enough that attaches cascade into evictions, and after every
// step holds each answer from maintained state to the walk it replaced,
// with nothing pinned, with the sublist's coldest and hottest owners
// pinned, for probe signatures near and far from the slots' (through
// the linear probe and the scan's probe index), and for scan windows
// from one block to the whole list.
func TestMaintainedStateMatchesWalks(t *testing.T) {
	cfg := smallConfig()
	cfg.SSDBlocks = 64
	cfg.DataRAMBytes = 32 * blockdev.BlockSize
	cfg.DeltaRAMBytes = 16 << 10
	cfg.MetadataBlocks = 400
	clock := sim.NewClock()
	ssd := fault.Wrap(blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond),
		fault.Config{Seed: 7, Rates: fault.Rates{WriteMedia: 0.002, ReadMedia: 0.002}})
	hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
	c, err := New(cfg, ssd, hdd, clock, cpumodel.NewAccountant(clock))
	if err != nil {
		t.Fatal(err)
	}

	r := sim.NewRand(2024)
	var victims, pinnedSkips, matches, compactions int
	var idleByCount, idleByWalk, busy int
	check := func(op int) {
		t.Helper()
		// The scan gate: the O(1) answer against the whole list, the
		// window answer against a plain walk of each window.
		window := c.cfg.ScanWindow
		c.cfg.ScanWindow = c.lru.len()
		if got, want := c.lru.unattached, c.scanWindowUnattachedWalk(); got != want {
			t.Fatalf("op %d: unattached count says %d, the LRU holds %d blocks with no slot", op, got, want)
		}
		for _, w := range []int{1, 8, 64, window} {
			c.cfg.ScanWindow = w
			got, want := c.scanWindowIdle(), c.scanWindowUnattachedWalk() == 0
			if got != want {
				t.Fatalf("op %d, window %d: scanWindowIdle says %v, the walk %v", op, w, got, want)
			}
			switch {
			case !got:
				busy++
			case c.lru.unattached == 0:
				idleByCount++
			default:
				idleByWalk++
			}
		}
		c.cfg.ScanWindow = window

		pins := []*vblock{nil, c.lru.head}
		if s := c.lru.wtail; s != nil {
			pins = append(pins, s.wt)
		}
		if s := c.lru.whead; s != nil {
			pins = append(pins, s.wt)
		}
		for _, pin := range pins {
			c.pinned = pin
			got, want := c.writeThroughVictim(), c.writeThroughVictimWalk()
			if got != want {
				t.Fatalf("op %d, %s pinned: sublist's victim is %s, the walk's %s", op, lbaOf(pin), lbaOf(got), lbaOf(want))
			}
			if got != nil {
				victims++
				if pin != nil && c.lru.wtail.wt == pin {
					pinnedSkips++
				}
			}
			if got, want := c.canReclaimSlot(), c.canReclaimSlotWalk(); got != want {
				t.Fatalf("op %d, %s pinned: canReclaimSlot says %v, the walk %v", op, lbaOf(pin), got, want)
			}
		}
		c.pinned = nil

		// Probe signatures: unrelated, and a live slot's own with 0..5
		// sub-signatures changed (MaxSigDistance is 4).
		var probes [4]sig.Signature
		for i := range probes {
			for j := range probes[i] {
				probes[i][j] = byte(r.Uint64())
			}
		}
		if live := c.slotOrder; len(live) > 0 {
			for i := 1; i < len(probes); i++ {
				probes[i] = live[r.Intn(len(live))].sigv
				for n := r.Intn(6); n > 0; n-- {
					probes[i][r.Intn(sig.SubBlocks)] ^= 1 << r.Intn(8)
				}
			}
		}
		if c.slotsStale {
			compactions++
		}
		for _, p := range probes {
			// The walk goes first: it filters the list the probe is
			// about to compact.
			want := c.findSimilarSlotWalk(p)
			if got := c.findSimilarSlot(p); got != want {
				t.Fatalf("op %d: probe %x found slot %v, the walk %v", op, p, got, want)
			}
			if got := c.scanSimilarSlot(p); got != want {
				t.Fatalf("op %d: probe index answers %x with slot %v, the walk %v", op, p, got, want)
			}
			if want != nil {
				matches++
			}
		}
	}

	buf := make([]byte, blockdev.BlockSize)
	anyBlock := func() *vblock {
		n := r.Intn(c.lru.len() + 1)
		v := c.lru.head
		for ; v != nil && n > 0; n-- {
			v = v.next
		}
		return v
	}
	const ops = 8000
	for op := 0; op < ops; op++ {
		switch op {
		case ops / 4:
			c.SetSSDQuarantined(true)
		case ops/4 + 300:
			c.SetSSDQuarantined(false)
		case ops / 2:
			if err := c.Flush(); err != nil {
				t.Fatalf("op %d: flush before crash: %v", op, err)
			}
			clock = sim.NewClock()
			if c, err = Recover(cfg, ssd, hdd, clock, cpumodel.NewAccountant(clock)); err != nil {
				t.Fatalf("op %d: recover: %v", op, err)
			}
		}
		lba := int64(r.Intn(300))
		if r.Float64() < 0.2 {
			lba = 300 + int64(r.Intn(3000)) // cold: fresh write-throughs, one-off misses
		}
		// Requests may fail on an injected SSD error; the maintained
		// state must agree with the walks regardless.
		switch p := r.Float64(); {
		case p < 0.35:
			_, _ = c.ReadBlock(lba, buf)
		case p < 0.65:
			_, _ = c.WriteBlock(lba, genContent(r, int(lba%6), 0.05))
		case p < 0.90:
			// Unrelated content: no reference accepts it, so it writes
			// through to a fresh slot.
			fillByLBA(int64(r.Uint64()>>1), buf)
			_, _ = c.WriteBlock(lba, buf)
		case p < 0.92:
			_ = c.Flush()
		case p < 0.94:
			_ = c.scan()
		case p < 0.96:
			c.reclaimSlot()
		case p < 0.98:
			_ = c.reclaimWriteThrough()
		default:
			if v := anyBlock(); v != nil {
				_ = c.evictToHome(v)
			}
		}
		check(op)
		if op%53 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if victims < 1000 || pinnedSkips < 100 || matches < 1000 || compactions < 100 || c.Stats.SlotsRetired == 0 {
		t.Fatalf("mix too tame: %d victims, %d with the coldest pinned, %d probe matches, %d compactions, %d slots retired",
			victims, pinnedSkips, matches, compactions, c.Stats.SlotsRetired)
	}
	if idleByCount < 40 || idleByWalk < 1000 || busy < 1000 {
		t.Fatalf("mix too tame for the scan gate: %d windows idle by count, %d idle by walk, %d with work", idleByCount, idleByWalk, busy)
	}
	t.Logf("%d victims checked (%d with the coldest pinned), %d probe matches, %d compactions, %d slots retired; scan windows: %d idle by count, %d idle by walk, %d with work",
		victims, pinnedSkips, matches, compactions, c.Stats.SlotsRetired, idleByCount, idleByWalk, busy)
}

// TestResurrectedSlotListedOnce pins the duplicate-entry bug: a slot
// whose last dependent left, and that is attached to again before any
// compaction dropped its slotOrder entry (a caller held it across a
// delta store whose RAM-pressure cascade evicted that dependent), used
// to be appended a second time and was then probed, and walked by
// backupWriteThroughs, twice for the rest of the run. It keeps the
// entry it has; only one that a compaction removed is listed anew.
func TestResurrectedSlotListedOnce(t *testing.T) {
	c := newTestRig(t, smallConfig()).c
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < 3; lba++ {
		fillByLBA(lba, buf) // unrelated content: three write-through slots
		if _, err := c.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.slotOrder) != 3 {
		t.Fatalf("%d slots listed after three write-throughs, want 3", len(c.slotOrder))
	}
	first, owner := c.slotOrder[0], c.slotOrder[0].wt
	late := &vblock{lba: 100}
	count := func(s *refSlot) (n int) {
		for _, o := range c.slotOrder {
			if o == s {
				n++
			}
		}
		return n
	}

	// Death and resurrection with no probe in between.
	c.detachSlot(owner)
	c.attachSlot(late, first)
	if n := count(first); n != 1 || c.slotOrder[0] != first {
		t.Fatalf("resurrected slot listed %d times (first entry is slot %d), want once, in place", n, c.slotOrder[0].index)
	}
	if got := c.liveSlots(); len(got) != 3 || got[0] != first {
		t.Fatalf("compaction after the resurrection left %d slots, want all 3 with slot %d first", len(got), first.index)
	}

	// Death, a probe that compacts the entry away, resurrection.
	c.detachSlot(late)
	if got := c.liveSlots(); len(got) != 2 || count(first) != 0 {
		t.Fatalf("dead slot survived a compaction (%d listed)", len(got))
	}
	c.attachSlot(late, first)
	if n := count(first); n != 1 || c.slotOrder[2] != first {
		t.Fatalf("slot resurrected after a compaction listed %d times, want once, at the end", n)
	}
}

// TestWriteThroughSublistRank holds the sublist to the filtered LRU at
// the list level, after every single edge. The controller-level test
// above cannot see a wrong rank: a request's own touch moves the block
// it wrote through to the head before the step ends. Here blocks become
// and stop being write-throughs at every rank, with touches, removals
// and re-links in between.
func TestWriteThroughSublistRank(t *testing.T) {
	var l lruList
	blocks := make([]*vblock, 40)
	for i := range blocks {
		blocks[i] = &vblock{lba: int64(i), kind: Associate, slotRef: &refSlot{index: int64(i)}}
		l.pushFront(blocks[i])
	}
	check := func(step int) {
		t.Helper()
		s, last := l.whead, (*refSlot)(nil)
		for v := l.head; v != nil; v = v.next {
			if v.kind != Independent || v.slotRef == nil {
				if v.slotRef != nil && v.slotRef.wt != nil {
					t.Fatalf("step %d: slot of %v block %d has an owner", step, v.kind, v.lba)
				}
				continue
			}
			if s == nil || s.wt != v || s != v.slotRef || s.wprev != last {
				t.Fatalf("step %d: write-through block %d out of place in the sublist", step, v.lba)
			}
			s, last = s.wnext, s
		}
		if s != nil || l.wtail != last {
			t.Fatalf("step %d: sublist runs past the LRU's write-through blocks", step)
		}
	}
	r := sim.NewRand(99)
	for step := 0; step < 4000; step++ {
		v := blocks[r.Intn(len(blocks))]
		switch p := r.Float64(); {
		case p < 0.35:
			v.kind = Independent
			l.wtSync(v)
		case p < 0.60:
			v.kind = Kind(1 + r.Intn(2))
			l.wtSync(v)
		case p < 0.80:
			if v.stamp != 0 {
				l.moveToFront(v)
			}
		case p < 0.90:
			if v.stamp != 0 {
				l.remove(v)
			}
		default:
			if v.stamp == 0 {
				l.pushFront(v)
			}
		}
		check(step)
	}
}

// writeWithSig writes unrelated content whose signature is sigv to a
// fresh LBA. No slot accepts its delta, so it writes through to a slot
// of its own, which it returns.
func writeWithSig(tb testing.TB, c *Controller, lba int64, sigv sig.Signature) *refSlot {
	tb.Helper()
	buf := make([]byte, blockdev.BlockSize)
	fillByLBA(lba, buf)
	cur := sig.Compute(buf)
	for p := range sigv {
		buf[p*sig.SubBlockSize] += sigv[p] - cur[p] // the first byte of a sub-block is sampled
	}
	if _, err := c.WriteBlock(lba, buf); err != nil {
		tb.Fatal(err)
	}
	v := c.lbas[lba].v
	if v == nil || v.slotRef == nil || v.kind != Independent || v.slotRef.sigv != sigv {
		tb.Fatalf("lba %d did not write through with signature %x", lba, sigv)
	}
	return v.slotRef
}

// TestScanProbeIndexMatchesWalk holds the scan's probe index to the
// walk on a rig of up to 300 write-through slots: at live-slot counts
// on either side of a 64-slot bitmap word and of the probe prefix, at
// MaxSigDistance 0, 4 and 8, over duplicate signatures (the lowest
// position wins), and across a slot listed inside the prefix and one
// dying there, each between two probes. A slot listed past the prefix
// leaves the index fresh.
func TestScanProbeIndexMatchesWalk(t *testing.T) {
	cfg := NewDefaultConfig(4096, 400, 64<<10, 64*blockdev.BlockSize)
	cfg.MetadataBlocks = 4096
	cfg.ScanPeriod = 1 << 30
	cfg.FlushPeriodOps = 0
	cfg.HeatmapDecayOps = 0
	c := newTestRig(t, cfg).c
	r := sim.NewRand(31)
	randSig := func() (s sig.Signature) {
		binary.LittleEndian.PutUint64(s[:], r.Uint64())
		return s
	}

	// Slot signatures: each one of ten families' with up to six
	// sub-signatures changed, and every seventh a copy of an earlier one.
	var families [10]sig.Signature
	for i := range families {
		families[i] = randSig()
	}
	sigs := make([]sig.Signature, 300)
	for i := range sigs {
		if i%7 == 6 {
			sigs[i] = sigs[r.Intn(i)]
			continue
		}
		sigs[i] = families[r.Intn(len(families))]
		for n := r.Intn(7); n > 0; n-- {
			sigs[i][r.Intn(sig.SubBlocks)] = byte(r.Uint64())
		}
	}
	for i, sv := range sigs {
		if i >= maxSlotProbe-1 {
			c.scanSimilarSlot(sv) // build over the list as it stands
		}
		writeWithSig(t, c, int64(i), sv)
		if inPrefix := i < maxSlotProbe; c.probe != nil && c.probe.fresh == inPrefix {
			t.Fatalf("listing slot %d (in the prefix: %v) left the probe index fresh=%v", i, inPrefix, c.probe.fresh)
		}
	}

	var matches [sig.SubBlocks + 1]int
	dups := 0
	for _, n := range []int{300, 256, 255, 65, 64, 63, 1, 0} {
		for live := c.liveSlots(); len(live) > n; live = c.liveSlots() {
			if err := c.evictToHome(live[len(live)-1].wt); err != nil {
				t.Fatal(err)
			}
		}
		for _, dist := range []int{0, 4, 8} {
			c.cfg.MaxSigDistance = dist
			for i := 0; i < 300; i++ {
				p := randSig()
				if i > 0 {
					p = sigs[r.Intn(len(sigs))]
					for k := r.Intn(sig.SubBlocks + 1); k > 0; k-- {
						p[r.Intn(sig.SubBlocks)] ^= 1 << r.Intn(8)
					}
				}
				want := c.findSimilarSlotWalk(p)
				if got := c.scanSimilarSlot(p); got != want {
					t.Fatalf("%d live, MaxSigDistance %d: probe index answers %x with %v, the walk %v", n, dist, p, got, want)
				}
				if want != nil {
					matches[sig.Distance(p, want.sigv)]++
				}
			}
		}
		c.cfg.MaxSigDistance = 4
		live := c.liveSlots()
		for j, s := range live[:min(len(live), maxSlotProbe)] {
			first := slices.IndexFunc(live, func(o *refSlot) bool { return o.sigv == s.sigv })
			if got := c.scanSimilarSlot(s.sigv); got != live[first] {
				t.Fatalf("%d live: slot %d's own signature finds %v, want position %d", n, j, got, first)
			}
			if first < j {
				dups++
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%d live: %v", n, err)
		}
	}
	if slices.Contains(matches[:], 0) || dups == 0 {
		t.Fatalf("too tame: matches by distance %v, %d duplicate signatures", matches, dups)
	}

	// Between two probes: a slot listed while fewer than maxSlotProbe
	// are live, then a slot dying inside the prefix.
	for i := 0; i < 100; i++ {
		writeWithSig(t, c, int64(1000+i), randSig())
	}
	fresh := randSig()
	if got := c.scanSimilarSlot(fresh); got != nil {
		t.Fatalf("unrelated signature found %v", got)
	}
	added := writeWithSig(t, c, 2000, fresh)
	if c.probe.fresh {
		t.Fatal("listing a slot inside the prefix left the probe index fresh")
	}
	if got := c.scanSimilarSlot(fresh); got != added {
		t.Fatalf("a slot listed between two probes: found %v, want %v", got, added)
	}
	victim := c.liveSlots()[40]
	if got := c.scanSimilarSlot(victim.sigv); got != victim {
		t.Fatalf("slot %d's own signature found %v", victim.index, got)
	}
	if err := c.evictToHome(victim.wt); err != nil {
		t.Fatal(err)
	}
	if c.probe.fresh {
		t.Fatal("a slot dying inside the prefix left the probe index fresh")
	}
	want := c.findSimilarSlotWalk(victim.sigv)
	if got := c.scanSimilarSlot(victim.sigv); got != want || got == victim {
		t.Fatalf("a slot died between two probes: found %v, the walk %v", got, want)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestProbeCountThreshold holds the probe index's bit-sliced adder and
// threshold to a popcount over every pattern of equal sub-signatures:
// a loose filter would hide behind the distance check and only cost
// time.
func TestProbeCountThreshold(t *testing.T) {
	for pat := 0; pat < 1<<sig.SubBlocks; pat++ {
		var eq [sig.SubBlocks]uint64
		for p := range eq {
			eq[p] = uint64(pat>>p&1) << 63
		}
		cnt := count8(&eq)
		got := 0
		for k, plane := range cnt {
			got |= int(plane>>63) << k
		}
		want := bits.OnesCount8(uint8(pat))
		if got != want {
			t.Fatalf("pattern %08b: count8 says %d (planes %x), want %d", pat, got, cnt, want)
		}
		for need := -1; need <= sig.SubBlocks+1; need++ {
			if got, want := atLeast(cnt, need)>>63 == 1, want >= need; got != want {
				t.Fatalf("pattern %08b, need %d: atLeast says %v", pat, need, got)
			}
		}
	}
}
