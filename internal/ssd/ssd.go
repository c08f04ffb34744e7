// Package ssd models a NAND-flash solid-state drive at the fidelity the
// I-CASH evaluation depends on: fast random reads, slower programs, very
// slow erases, a page-mapped FTL with garbage collection and wear
// leveling, an internal DRAM read cache and mapping cache, and erase
// counters that bound device lifetime.
//
// The model reproduces the asymmetries the paper exploits:
//
//   - random reads are cheap (tens of microseconds), and a *small* hot
//     footprint is cheaper still because it stays in the device's DRAM
//     cache and mapping cache (the paper measures ~15 µs difference
//     between a 10 MB and a 1 GB working set on the Fusion-io, §5.1);
//   - random writes are expensive and become more expensive as free
//     space fragments, because garbage collection must relocate valid
//     pages and erase blocks;
//   - every erase wears the device; Table 6 of the paper counts writes
//     to the SSD precisely because fewer writes mean longer lifetime.
package ssd

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/sim"
	"icash/internal/sim/event"
)

// Config describes the simulated device. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// CapacityBlocks is the host-visible capacity in 4 KB blocks.
	CapacityBlocks int64
	// OverProvision is the fraction of extra physical flash beyond the
	// host-visible capacity (SLC enterprise drives: ~0.2).
	OverProvision float64
	// PagesPerBlock is the number of 4 KB pages per erase block.
	PagesPerBlock int
	// Channels is the number of independent flash channels; programs
	// interleave across channels, dividing effective program latency.
	Channels int

	// PageReadLatency is the raw media read time for one page.
	PageReadLatency sim.Duration
	// PageProgramLatency is the raw media program time for one page.
	PageProgramLatency sim.Duration
	// EraseLatency is the block erase time.
	EraseLatency sim.Duration
	// TransferLatency is the bus/controller time per page transfer.
	TransferLatency sim.Duration

	// ReadCacheBlocks is the device DRAM read cache size in blocks
	// (0 disables it). Hits cost CacheHitLatency instead of a media read.
	ReadCacheBlocks int
	// CacheHitLatency is the service time for a device-cache hit.
	CacheHitLatency sim.Duration
	// MapCacheEntries is the FTL mapping-cache size in pages (0 means
	// the whole map is cached). Misses add MapMissPenalty.
	MapCacheEntries int
	// MapMissPenalty is the extra time to fetch a mapping entry from
	// flash on a map-cache miss.
	MapMissPenalty sim.Duration

	// GCThresholdBlocks triggers garbage collection when the free-block
	// pool drops to this size.
	GCThresholdBlocks int
	// EraseLimit is the per-block erase endurance (SLC ~100k).
	EraseLimit int
	// WearWeight blends wear into GC victim selection: 0 = pure greedy
	// (fewest valid pages), larger values prefer low-erase-count blocks.
	WearWeight float64
}

// DefaultConfig returns an SLC device in the spirit of the paper's
// Fusion-io ioDrive 80G SLC, scaled to the requested host capacity. The
// device DRAM resources are absolute, not scaled: the paper measures
// that a ~10 MB hot footprint runs ~15 µs faster than sweeps of a 1 GB
// footprint (§5.1) — i.e. the device's hot mapping window covers a few
// thousand pages regardless of capacity. A working set inside that
// window runs at "peak speed"; sweeps pay the mapping-fetch penalty.
func DefaultConfig(capacityBlocks int64) Config {
	readCache := 256 // 1 MB device data cache
	mapCache := 2560 // hot mapping window ≈ 10 MB of pages (§5.1)
	return Config{
		CapacityBlocks:     capacityBlocks,
		OverProvision:      0.20,
		PagesPerBlock:      64,
		Channels:           4,
		PageReadLatency:    25 * sim.Microsecond,
		PageProgramLatency: 200 * sim.Microsecond,
		EraseLatency:       1500 * sim.Microsecond,
		TransferLatency:    10 * sim.Microsecond,
		ReadCacheBlocks:    readCache,
		CacheHitLatency:    5 * sim.Microsecond,
		MapCacheEntries:    mapCache,
		MapMissPenalty:     15 * sim.Microsecond,
		GCThresholdBlocks:  8,
		EraseLimit:         100000,
		WearWeight:         0.1,
	}
}

// pageLoc addresses a physical page.
type pageLoc struct {
	block int32
	page  int32
}

const invalidPage = int64(-1)

// flashBlock is one erase block's physical state.
type flashBlock struct {
	pages  []int64 // logical page stored in each physical page, or invalidPage
	next   int     // next free page index within the block
	valid  int     // count of valid pages
	erases int
}

// Device is the simulated SSD. It implements blockdev.Device. Device is
// not safe for concurrent use (the simulation is single-threaded).
type Device struct {
	// Logical content, which supplies Blocks, SetFill (the drive ships
	// pre-imaged with the data set) and the Corrupt test hook (a silent
	// bit flip that bypasses timing, wear and statistics). Content
	// correctness is independent of physical placement; the FTL below
	// models only timing and wear.
	blockdev.Store
	cfg Config

	// FTL state.
	blocks    []flashBlock
	mapping   []pageLoc // logical page -> physical location
	mapped    []bool
	freeList  []int32 // erase-block indexes with no valid data, erased
	active    int32   // block currently filled by host writes
	gcActive  int32   // dedicated destination block for GC relocation
	freePages int64

	readCache *clockCache // device DRAM read cache over logical pages
	mapCache  *clockCache // FTL mapping cache over logical pages

	// tracer/channels connect the device to the concurrency engine:
	// each request notes its service time against one channel station
	// (lba-striped). Nil when uninstrumented (standalone use).
	tracer   *event.Tracer
	channels []*event.Server

	// Stats is externally visible accounting.
	Stats Stats
}

// Stats aggregates device activity for the experiment harness.
type Stats struct {
	blockdev.Stats
	// HostWrites counts write requests issued by the host: the paper's
	// Table 6 metric.
	HostWrites int64
	// PagesProgrammed counts physical page programs including GC
	// relocation; PagesProgrammed/HostWrites is write amplification.
	PagesProgrammed int64
	// PagesRelocated counts GC copies.
	PagesRelocated int64
	// Erases counts block erases.
	Erases int64
	// GCRuns counts garbage-collection invocations.
	GCRuns int64
	// GCTime is total time spent inside garbage collection (charged to
	// the triggering host writes).
	GCTime sim.Duration
	// ReadCacheHits counts device-DRAM cache hits.
	ReadCacheHits int64
	// MapMisses counts FTL mapping-cache misses.
	MapMisses int64
	// WornBlocks counts erase blocks that exceeded the erase limit.
	WornBlocks int64
}

// Accumulate adds every counter of o into s — the aggregation the
// element array and the sharded harness use to report one device-level
// figure across per-element / per-shard SSDs. Write amplification is
// recomputed from the summed programs and host writes, so it stays a
// ratio, never an average of averages.
func (s *Stats) Accumulate(o *Stats) {
	s.Stats.Add(o.Stats)
	s.HostWrites += o.HostWrites
	s.PagesProgrammed += o.PagesProgrammed
	s.PagesRelocated += o.PagesRelocated
	s.Erases += o.Erases
	s.GCRuns += o.GCRuns
	s.GCTime += o.GCTime
	s.ReadCacheHits += o.ReadCacheHits
	s.MapMisses += o.MapMisses
	s.WornBlocks += o.WornBlocks
}

// WriteAmplification returns physical programs per host write.
func (s *Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.PagesProgrammed) / float64(s.HostWrites)
}

// New builds a device from cfg.
func New(cfg Config) *Device {
	if cfg.CapacityBlocks <= 0 {
		panic("ssd: non-positive capacity")
	}
	if cfg.PagesPerBlock <= 0 {
		cfg.PagesPerBlock = 64
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	physPages := cfg.CapacityBlocks + int64(float64(cfg.CapacityBlocks)*cfg.OverProvision)
	nBlocks := int(physPages/int64(cfg.PagesPerBlock)) + 3
	// The GC threshold must be achievable: a small (scaled-down) device
	// cannot keep 8 blocks free and still hold its logical capacity.
	maxThreshold := (nBlocks - int(cfg.CapacityBlocks/int64(cfg.PagesPerBlock))) / 2
	if maxThreshold < 1 {
		maxThreshold = 1
	}
	if cfg.GCThresholdBlocks > maxThreshold {
		cfg.GCThresholdBlocks = maxThreshold
	}
	if cfg.GCThresholdBlocks < 1 {
		cfg.GCThresholdBlocks = 1
	}
	d := &Device{
		Store:   blockdev.NewStore(cfg.CapacityBlocks),
		cfg:     cfg,
		blocks:  make([]flashBlock, nBlocks),
		mapping: make([]pageLoc, cfg.CapacityBlocks),
		mapped:  make([]bool, cfg.CapacityBlocks),
	}
	for i := range d.blocks {
		d.blocks[i].pages = make([]int64, cfg.PagesPerBlock)
		for j := range d.blocks[i].pages {
			d.blocks[i].pages[j] = invalidPage
		}
	}
	d.freeList = make([]int32, 0, nBlocks)
	for i := nBlocks - 1; i >= 2; i-- {
		d.freeList = append(d.freeList, int32(i))
	}
	d.active = 0
	d.gcActive = 1
	d.freePages = int64(nBlocks) * int64(cfg.PagesPerBlock)
	if cfg.ReadCacheBlocks > 0 {
		d.readCache = newClockCache(cfg.ReadCacheBlocks)
	}
	if cfg.MapCacheEntries > 0 {
		d.mapCache = newClockCache(cfg.MapCacheEntries)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// mapLookupCost models the FTL mapping-cache: hot logical pages resolve
// instantly, cold ones pay a flash map fetch. This is what makes a small
// hot footprint (I-CASH's reference set) faster than sweeping the whole
// device (pure-SSD baseline).
func (d *Device) mapLookupCost(lba int64) sim.Duration {
	if d.mapCache == nil {
		return 0
	}
	if d.mapCache.touch(lba) {
		return 0
	}
	d.Stats.MapMisses++
	return d.cfg.MapMissPenalty
}

// ReadBlock services a host read.
func (d *Device) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := d.Check(lba, buf); err != nil {
		return 0, err
	}
	d.Read(lba, buf)
	var lat sim.Duration
	if d.readCache != nil && d.readCache.touch(lba) {
		d.Stats.ReadCacheHits++
		lat = d.cfg.CacheHitLatency
	} else {
		lat = d.mapLookupCost(lba) + d.cfg.PageReadLatency + d.cfg.TransferLatency
	}
	d.Stats.NoteRead(blockdev.BlockSize, lat)
	d.note(lba, lat)
	return lat, nil
}

// WriteBlock services a host write: allocate a flash page, program it,
// invalidate the old mapping, and run garbage collection if the free
// pool is exhausted. GC time is charged to the triggering write, which
// is exactly the latency spike behaviour real drives exhibit.
func (d *Device) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := d.Check(lba, buf); err != nil {
		return 0, err
	}
	d.Stats.HostWrites++
	lat := d.mapLookupCost(lba) + d.cfg.TransferLatency

	// Program into the active block first; channel interleaving divides
	// the program time seen by a stream of writes. When the device is
	// out of programmable flash the write fails as a program failure
	// before any content or mapping state changes.
	loc, gcTime, err := d.allocPage(lba)
	if err != nil {
		lat += gcTime
		d.Stats.NoteWrite(blockdev.BlockSize, lat)
		d.note(lba, lat)
		return lat, err
	}

	// Invalidate the previous physical page.
	if d.mapped[lba] {
		old := d.mapping[lba]
		blk := &d.blocks[old.block]
		if blk.pages[old.page] == lba {
			blk.pages[old.page] = invalidPage
			blk.valid--
		}
	}
	d.Write(lba, buf)
	d.mapping[lba] = loc
	d.mapped[lba] = true
	d.Stats.PagesProgrammed++
	lat += d.cfg.PageProgramLatency/sim.Duration(d.cfg.Channels) + gcTime

	if d.readCache != nil {
		d.readCache.touch(lba) // write allocates into device cache
	}
	d.Stats.NoteWrite(blockdev.BlockSize, lat)
	d.note(lba, lat)
	return lat, nil
}

// note records one serviced request against the lba's channel station.
func (d *Device) note(lba int64, lat sim.Duration) {
	if d.tracer == nil || len(d.channels) == 0 {
		return
	}
	d.tracer.Note(d.channels[lba%int64(len(d.channels))], lat)
}

// Instrument connects the device to the concurrency engine: requests
// note their service time against one of chans, striped by LBA (an
// approximation of channel-level parallelism inside the drive). A nil
// tracer detaches the device.
func (d *Device) Instrument(tr *event.Tracer, chans []*event.Server) {
	d.tracer = tr
	d.channels = chans
}

// allocPage takes the next free physical page, opening a new active
// block (and garbage-collecting) as needed, and records the logical
// owner. It returns the location and any GC time incurred. An
// over-committed device can run out of programmable flash; that
// surfaces as blockdev.ErrMedia.
func (d *Device) allocPage(lba int64) (pageLoc, sim.Duration, error) {
	var gcTime sim.Duration
	blk := &d.blocks[d.active]
	if blk.next >= d.cfg.PagesPerBlock {
		gcTime = d.maybeGC()
		next, err := d.popFree()
		if err != nil {
			return pageLoc{}, gcTime, err
		}
		d.active = next
		blk = &d.blocks[d.active]
	}
	loc := pageLoc{block: d.active, page: int32(blk.next)}
	blk.pages[blk.next] = lba
	blk.next++
	blk.valid++
	d.freePages--
	return loc, gcTime, nil
}

// placeGC puts one relocated page into the GC destination block, which
// is guaranteed to have room by collectOne's accounting.
func (d *Device) placeGC(lba int64) {
	dst := &d.blocks[d.gcActive]
	if dst.next >= d.cfg.PagesPerBlock {
		panic("ssd: GC destination overflow")
	}
	d.mapping[lba] = pageLoc{block: d.gcActive, page: int32(dst.next)}
	dst.pages[dst.next] = lba
	dst.next++
	dst.valid++
	d.freePages--
}

// popFree removes one erased block from the free list. An empty list
// means the device has no programmable flash left, and the caller's
// write must fail rather than corrupt FTL state.
func (d *Device) popFree() (int32, error) {
	if len(d.freeList) == 0 {
		return 0, fmt.Errorf("ssd: out of programmable flash blocks: %w", blockdev.ErrMedia)
	}
	idx := d.freeList[len(d.freeList)-1]
	d.freeList = d.freeList[:len(d.freeList)-1]
	return idx, nil
}

// maybeGC reclaims space until the free pool is above threshold,
// returning total simulated time spent. GC relocates into its own
// dedicated destination block (never the host free pool), so it always
// makes page-level progress; the loop stops when several consecutive
// collections fail to grow the free pool — the device is then at its
// live-data ceiling.
func (d *Device) maybeGC() sim.Duration {
	var total sim.Duration
	stalls := 0
	for len(d.freeList) <= d.cfg.GCThresholdBlocks && stalls < 8 {
		before := len(d.freeList)
		t, ok := d.collectOne()
		if !ok {
			break
		}
		total += t
		if len(d.freeList) > before {
			stalls = 0
		} else {
			stalls++
		}
	}
	return total
}

// collectOne picks a victim block by cost-benefit (fewest valid pages,
// biased toward low wear), relocates its valid pages into the dedicated
// GC destination block, and erases it. When the destination fills
// mid-relocation, the remaining victim pages are staged in the
// controller's copyback buffer, the victim is erased, and the erased
// victim becomes the new destination — so GC never draws from the host
// free pool. The victim joins the free pool only when its valid pages
// fit the current destination entirely.
func (d *Device) collectOne() (sim.Duration, bool) {
	victim := int32(-1)
	best := float64(1 << 30)
	for i := range d.blocks {
		blk := &d.blocks[i]
		if int32(i) == d.active || int32(i) == d.gcActive || blk.next < d.cfg.PagesPerBlock {
			continue // only full, non-destination blocks are candidates
		}
		score := float64(blk.valid) + d.cfg.WearWeight*float64(blk.erases)
		if score < best {
			best = score
			victim = int32(i)
		}
	}
	if victim < 0 {
		return 0, false
	}
	d.Stats.GCRuns++
	blk := &d.blocks[victim]
	var t sim.Duration

	// Gather the victim's valid logical pages (copyback staging).
	live := make([]int64, 0, blk.valid)
	for p := 0; p < d.cfg.PagesPerBlock; p++ {
		if lba := blk.pages[p]; lba != invalidPage {
			live = append(live, lba)
			blk.pages[p] = invalidPage
		}
	}
	blk.valid = 0
	t += sim.Duration(len(live)) * d.cfg.PageReadLatency

	// Erase the victim now; its space is available for relocation.
	blk.next = 0
	blk.erases++
	d.Stats.Erases++
	if blk.erases == d.cfg.EraseLimit {
		d.Stats.WornBlocks++
	}
	d.freePages += int64(d.cfg.PagesPerBlock)
	t += d.cfg.EraseLatency

	dstFree := d.cfg.PagesPerBlock - d.blocks[d.gcActive].next
	freedWhole := len(live) <= dstFree
	for _, lba := range live {
		if d.blocks[d.gcActive].next >= d.cfg.PagesPerBlock {
			// Destination full: the erased victim takes over.
			d.gcActive = victim
		}
		d.placeGC(lba)
		t += d.cfg.PageProgramLatency / sim.Duration(d.cfg.Channels)
		d.Stats.PagesRelocated++
		d.Stats.PagesProgrammed++
	}
	if freedWhole {
		// Victim fully drained into the old destination: it is free.
		d.freeList = append(d.freeList, victim)
	}
	d.Stats.GCTime += t
	return t, true
}

// EraseCounts returns a copy of per-block erase counters (wear profile).
func (d *Device) EraseCounts() []int {
	out := make([]int, len(d.blocks))
	for i := range d.blocks {
		out[i] = d.blocks[i].erases
	}
	return out
}

// CheckInvariants validates internal FTL consistency; tests call it
// after randomized operation sequences.
func (d *Device) CheckInvariants() error {
	// Every mapped logical page must point at a physical page that
	// claims it, and valid counts must agree.
	validByBlock := make([]int, len(d.blocks))
	for lba := int64(0); lba < d.cfg.CapacityBlocks; lba++ {
		if !d.mapped[lba] {
			continue
		}
		loc := d.mapping[lba]
		if int(loc.block) >= len(d.blocks) {
			return fmt.Errorf("ssd: lba %d maps to bad block %d", lba, loc.block)
		}
		got := d.blocks[loc.block].pages[loc.page]
		if got != lba {
			return fmt.Errorf("ssd: lba %d maps to page owned by %d", lba, got)
		}
		validByBlock[loc.block]++
	}
	for i := range d.blocks {
		if d.blocks[i].valid != validByBlock[i] {
			return fmt.Errorf("ssd: block %d valid=%d, actual=%d", i, d.blocks[i].valid, validByBlock[i])
		}
		if d.blocks[i].valid > d.blocks[i].next {
			return fmt.Errorf("ssd: block %d valid=%d exceeds fill=%d", i, d.blocks[i].valid, d.blocks[i].next)
		}
	}
	return nil
}

var (
	_ blockdev.Device = (*Device)(nil)
	_ blockdev.Filler = (*Device)(nil)
)

// ResetStats zeroes the accumulated statistics (wear counters on the
// blocks themselves are preserved). Harnesses call it after an
// unmeasured populate phase.
func (d *Device) ResetStats() { d.Stats = Stats{} }
