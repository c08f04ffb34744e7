// Package harness builds the five storage systems of the paper's
// evaluation (§4.4) on identical simulated devices, drives them with the
// workload generators, and renders every figure and table of §5.
package harness

import (
	"fmt"

	"icash/internal/baseline"
	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/fault"
	"icash/internal/hdd"
	"icash/internal/raid"
	"icash/internal/sim"
	"icash/internal/sim/event"
	"icash/internal/ssd"
)

// Kind identifies one of the five storage systems under test.
type Kind int

const (
	// FusionIO is the pure-SSD baseline holding the whole data set.
	FusionIO Kind = iota
	// RAID0 stripes four simulated SATA disks.
	RAID0
	// Dedup is the content-deduplicating SSD cache over one disk.
	Dedup
	// LRU is the SSD LRU cache over one disk.
	LRU
	// ICASH is the paper's contribution.
	ICASH
)

// String returns the paper's label for the system.
func (k Kind) String() string {
	switch k {
	case FusionIO:
		return "FusionIO"
	case RAID0:
		return "RAID"
	case Dedup:
		return "Dedup"
	case LRU:
		return "LRU"
	case ICASH:
		return "I-CASH"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists the systems in the paper's figure order.
func AllKinds() []Kind { return []Kind{FusionIO, RAID0, Dedup, LRU, ICASH} }

// BuildConfig sizes one system instance.
type BuildConfig struct {
	// DataBlocks is the virtual-disk size in blocks (the scaled data
	// set).
	DataBlocks int64
	// SSDCacheBlocks is the SSD provisioned for the cache systems and
	// I-CASH (FusionIO always gets the full data set).
	SSDCacheBlocks int64
	// DeltaRAMBytes and DataRAMBytes partition I-CASH's controller RAM.
	DeltaRAMBytes int64
	DataRAMBytes  int64
	// VMImageBlocks enables I-CASH's VM-offset pairing (0 = off).
	VMImageBlocks int64
	// Shards partitions the I-CASH controller into that many
	// independent LBA-range shards, each a full controller over its own
	// SSD+HDD pair, composed under the one clock (<= 1 is one shard, the
	// paper's prototype; ignored for the baseline systems). When
	// VMImageBlocks is set the per-shard size is aligned up to it, so a
	// VM image never straddles shards.
	Shards int
	// Workers is the worker count of the ForEachPoint fans inside one
	// system — the per-shard flush and Populate (<= 0 = GOMAXPROCS).
	// Output is identical at every count.
	Workers int
	// Tune overrides I-CASH controller parameters after the harness
	// defaults are applied (ablation studies). The devices are sized
	// for a tuned LogBlocks or SSDBlocks above the default.
	Tune func(*core.Config)

	// FaultSSD and FaultHDD, when non-nil, interpose deterministic
	// fault injectors between shard 0's controller and its devices
	// (robustness experiments; ignored for the baseline systems). Faults
	// are a per-device phenomenon, and pinning them to one shard is what
	// the blast-radius experiments measure: the other shards keep
	// serving. Their Clock and default Station names are filled in by
	// Build; a Plan on either config is additionally installed as a
	// station shaper, so fail-slow windows inflate both the
	// controller-visible latency and the station occupancy.
	FaultSSD *fault.Config
	FaultHDD *fault.Config

	// SlowDetector enables the fail-slow detector: station service
	// times feed a windowed-p99 watch, and the run loop quarantines /
	// re-admits the I-CASH SSD as the flag flips.
	SlowDetector bool
}

const (
	// raidDisks is the RAID0 stripe width (the paper uses 4).
	raidDisks = 4

	// The fail-slow detector's thresholds, per SSD channel and per HDD
	// actuator. 2 ms sits well above a channel's routine service (tens
	// of microseconds); the rare healthy ops beyond it — writes that
	// trigger GC pay an erase plus relocations — stay under the
	// detector's 5% flag fraction, while a fail-slow window pushes
	// ordinary writes past it in bulk.
	slowSSDThreshold = 2 * sim.Millisecond
	slowHDDThreshold = 100 * sim.Millisecond
)

// System is one storage configuration under test: the device stack plus
// its clock and CPU accountant.
type System struct {
	Kind  Kind
	Clock *sim.Clock
	CPU   *cpumodel.Accountant
	Dev   blockdev.Device

	// Component handles for statistics; nil when absent. SSD is the
	// baselines' single flash device.
	SSD  *ssd.Device
	HDDs []*hdd.Device

	// Sharded is the I-CASH controller: one or more LBA-range shards,
	// shard i over SSDs[i] and HDDs[i]. ShardCPUs holds one storage
	// accountant per shard — per-shard so the parallel populate fan
	// never shares a mutable accountant across workers; the aggregate
	// views below sum them with the system accountant.
	Sharded   *core.ShardedController
	SSDs      []*ssd.Device
	ShardCPUs []*cpumodel.Accountant
	// shardSSDNames caches the per-shard SSD station prefixes ("ssd",
	// or "s0.ssd", ...) so the per-request detector poll allocates
	// nothing.
	shardSSDNames []string

	// SSDFault and HDDFault are the fault injectors when the build
	// requested them; nil otherwise.
	SSDFault *fault.Device
	HDDFault *fault.Device

	// Tracers and Stations are the concurrency-engine hookup: every SSD
	// channel and HDD actuator is a service station, and devices note
	// their per-request service times through a tracer — shard i's
	// devices through Tracers[i] on an I-CASH array, so two shard groups
	// of a run never share one; a baseline stack's through Tracers[0].
	Tracers  []*event.Tracer
	Stations []*event.Server

	// Detector, when the build enabled it, watches station service
	// times; the runner polls it between traced requests to drive SSD
	// quarantine and re-admission on the I-CASH shards.
	Detector *fault.Detector

	flush func() error
	// workers is BuildConfig.Workers: the width of the per-shard fans
	// (Flush, Populate).
	workers int
	// resets zero one component's counters each, fills install the
	// initial-content oracle on one each and bases the data set's basis
	// on one store each; Build registers them as it assembles the stack.
	// basis is the basis installed last.
	resets []func()
	fills  []func(blockdev.FillFunc)
	bases  []func(blockdev.Basis)
	basis  blockdev.Basis
}

// Name returns the paper's label.
func (s *System) Name() string { return s.Kind.String() }

// Flush drains any volatile state to durable media (end of run).
func (s *System) Flush() error {
	if s.flush == nil {
		return nil
	}
	return s.flush()
}

// ResetStats zeroes every statistics counter in the stack (after the
// unmeasured populate phase), the CPU accountants included.
func (s *System) ResetStats() {
	for _, reset := range s.resets {
		reset()
	}
}

// ssdStats returns the device-level SSD accounting: the single SSD's
// stats on a baseline stack, the sum across per-shard SSDs on I-CASH,
// nil when the stack has no SSD (RAID0).
func (s *System) ssdStats() *ssd.Stats {
	if s.SSD != nil {
		st := s.SSD.Stats
		return &st
	}
	if len(s.SSDs) == 0 {
		return nil
	}
	var total ssd.Stats
	for _, d := range s.SSDs {
		st := d.Stats
		total.Accumulate(&st)
	}
	return &total
}

// StorageCPUTime is the storage-stack CPU time across the system
// accountant and every per-shard accountant.
func (s *System) StorageCPUTime() sim.Duration {
	t := s.CPU.StorageTime
	for _, c := range s.ShardCPUs {
		t += c.StorageTime
	}
	return t
}

// CPUBusy is total CPU busy time (application + storage) across the
// system accountant and every per-shard accountant.
func (s *System) CPUBusy() sim.Duration {
	b := s.CPU.Busy()
	for _, c := range s.ShardCPUs {
		b += c.Busy()
	}
	return b
}

// instrument builds one service station per independently serving unit
// — each SSD channel, each HDD actuator — and connects the devices to
// their shard's tracer. Called once at the end of Build. Fault plans
// from the build config become station shapers (a fail-slow window
// inflates station occupancy, not just the controller-visible latency),
// and the optional slow-device detector observes every station's shaped
// service times.
func (s *System) instrument(cfg BuildConfig) {
	n := len(s.SSDs)
	s.Tracers = make([]*event.Tracer, max(n, 1))
	for i := range s.Tracers {
		s.Tracers[i] = event.NewTracer()
	}
	var ssdPlan, hddPlan *fault.Schedule
	if cfg.FaultSSD != nil {
		ssdPlan = cfg.FaultSSD.Plan
	}
	if cfg.FaultHDD != nil {
		hddPlan = cfg.FaultHDD.Plan
	}
	if cfg.SlowDetector {
		s.Detector = fault.NewDetector(0)
	}
	watch := func(srv *event.Server, threshold sim.Duration) {
		if s.Detector == nil {
			return
		}
		name := srv.Name()
		s.Detector.Watch(name, threshold)
		srv.SetObserver(func(svc sim.Duration) { s.Detector.Observe(name, svc) })
	}
	addSSD := func(dev *ssd.Device, name string, tr *event.Tracer) {
		chans := make([]*event.Server, dev.Config().Channels)
		for i := range chans {
			chans[i] = event.NewServer(fmt.Sprintf("%s.ch%d", name, i), event.DefaultQueueCap)
			chans[i].SetShaper(ssdPlan.Shaper(chans[i].Name()))
			watch(chans[i], slowSSDThreshold)
			s.Stations = append(s.Stations, chans[i])
			s.resets = append(s.resets, chans[i].ResetStats)
		}
		dev.Instrument(tr, chans)
	}
	addHDD := func(h *hdd.Device, name string, tr *event.Tracer) {
		srv := event.NewServer(name, event.DefaultQueueCap)
		srv.SetShaper(hddPlan.Shaper(srv.Name()))
		watch(srv, slowHDDThreshold)
		s.Stations = append(s.Stations, srv)
		s.resets = append(s.resets, srv.ResetStats)
		h.Instrument(tr, srv)
	}
	if s.SSD != nil {
		addSSD(s.SSD, "ssd", s.Tracers[0])
	}
	// I-CASH: shard i's stations live under ShardStation's namespace, so
	// a fault window or detector verdict scoped to "s0.ssd" touches
	// exactly one shard's channels (the schedule and detector both match
	// dotted prefixes).
	for i, dev := range s.SSDs {
		name := ShardStation(i, n, "ssd")
		s.shardSSDNames = append(s.shardSSDNames, name)
		addSSD(dev, name, s.Tracers[i])
	}
	for i, h := range s.HDDs {
		name, tr := fmt.Sprintf("hdd%d", i), s.Tracers[0]
		if s.Sharded != nil {
			name, tr = ShardStation(i, n, "hdd0"), s.Tracers[i]
		}
		addHDD(h, name, tr)
	}
}

// ShardStation names a station, or a dotted station prefix, of shard i
// in an n-shard I-CASH array. It is the one place that decides what a
// shard's stations are called: bare on a one-shard array ("ssd.ch0",
// "hdd0", detector name "ssd"), under "s<i>." otherwise. An empty name
// addresses every station of the shard, the way fault windows and the
// detector match dotted prefixes.
func ShardStation(i, n int, name string) string {
	switch {
	case n <= 1:
		return name
	case name == "":
		return fmt.Sprintf("s%d", i)
	}
	return fmt.Sprintf("s%d.%s", i, name)
}

// SetFill installs the workload's initial-content oracle on every
// device in the stack. An I-CASH shard's devices see shard-local LBAs,
// so there the registered fill translates them (global = shard base +
// local).
func (s *System) SetFill(f blockdev.FillFunc) {
	for _, fill := range s.fills {
		fill(f)
	}
}

// SetBasis installs the data set's basis on every store whose addresses
// are data-set addresses: FusionIO's SSD, the RAID0 members (through the
// array's translation), the LRU and Dedup HDDs, and each I-CASH shard's
// HDD home region (shard-translated; its log region gets none). Each
// I-CASH shard's controller gets its HDD's translation for its RAM data
// cache. Cache slot numbers are not data-set addresses, so no cache SSD
// gets one. Installing the basis already installed does nothing; a
// system takes one basis for its life (the stores panic on another).
func (s *System) SetBasis(b blockdev.Basis) {
	if b == s.basis {
		return
	}
	s.basis = b
	for _, set := range s.bases {
		set(b)
	}
}

// homeBasis is the data set's basis as an I-CASH shard's HDD and
// controller see it: home block (and controller LBA) lba is data-set
// block base+lba, and the log region past the home blocks has none.
type homeBasis struct {
	b          blockdev.Basis
	base, home int64
}

func (h homeBasis) Basis(lba int64) []byte {
	if lba >= h.home {
		return nil
	}
	return h.b.Basis(h.base + lba)
}

// newSSD and newHDD create one device of a baseline stack and register
// it with ResetStats and SetFill.
func (s *System) newSSD(cfg ssd.Config) *ssd.Device {
	s.SSD = ssd.New(cfg)
	s.resets = append(s.resets, s.SSD.ResetStats)
	s.fills = append(s.fills, s.SSD.SetFill)
	return s.SSD
}

func (s *System) newHDD(blocks int64) *hdd.Device {
	h := hdd.New(hdd.DefaultConfig(blocks))
	s.HDDs = append(s.HDDs, h)
	s.resets = append(s.resets, h.ResetStats)
	s.fills = append(s.fills, h.SetFill)
	return h
}

// Build constructs a system of the given kind.
func Build(kind Kind, cfg BuildConfig) (*System, error) {
	if cfg.DataBlocks <= 0 {
		return nil, fmt.Errorf("harness: DataBlocks must be positive")
	}
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	s := &System{Kind: kind, Clock: clock, CPU: cpu, workers: cfg.Workers}
	s.resets = append(s.resets, cpu.Reset)

	switch kind {
	case FusionIO:
		// The paper's ioDrive is far larger than any data set (80 GB vs
		// at most 17.5 GB), so the device runs at low utilization with
		// mild garbage collection. 4x the data set preserves that.
		devCfg := ssd.DefaultConfig(cfg.DataBlocks * 4)
		devCfg.CapacityBlocks = cfg.DataBlocks * 4
		pure := baseline.NewPureSSD(s.newSSD(devCfg), cpu)
		s.bases = append(s.bases, s.SSD.SetBasis)
		s.resets = append(s.resets, pure.ResetStats)
		s.Dev = pure
		s.flush = pure.Flush

	case RAID0:
		const chunk = 32
		const stripe = raidDisks * chunk
		per := (cfg.DataBlocks + stripe - 1) / stripe * chunk
		members := make([]blockdev.Device, raidDisks)
		for i := range members {
			members[i] = s.newHDD(per)
		}
		arr, err := raid.NewArray0(members, chunk)
		if err != nil {
			return nil, err
		}
		// Registered after the members' own fills, the array's replaces
		// them: it translates each member's local addresses back to
		// array addresses.
		s.fills = append(s.fills, arr.SetFill)
		s.bases = append(s.bases, arr.SetBasis)
		s.resets = append(s.resets, arr.ResetStats)
		s.Dev = arr

	case Dedup:
		slots, h := s.newSSD(cachePartitionConfig(cacheBlocks(cfg))), s.newHDD(cfg.DataBlocks)
		s.bases = append(s.bases, h.SetBasis)
		c := baseline.NewDedupCache(slots, h, cpu)
		s.resets = append(s.resets, c.ResetStats)
		s.Dev = c
		s.flush = c.Flush

	case LRU:
		slots, h := s.newSSD(cachePartitionConfig(cacheBlocks(cfg))), s.newHDD(cfg.DataBlocks)
		s.bases = append(s.bases, h.SetBasis)
		c := baseline.NewLRUCache(slots, h, cpu)
		s.resets = append(s.resets, c.ResetStats)
		s.Dev = c
		s.flush = c.Flush

	case ICASH:
		if err := buildICASH(s, cfg); err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("harness: unknown system kind %d", kind)
	}
	s.instrument(cfg)
	return s, nil
}

// PollDetector drives SSD quarantine and re-admission on the I-CASH
// shards from the slow-device detector's current verdict. The runner
// calls it after every replayed block, so a flagged station sidetracks
// its SSD within one request and a recovered one re-admits it just as
// promptly. Quarantine is per shard: a slow channel on s0's SSD
// sidetracks only s0; the other shards keep their read path. No-op
// when the build did not ask for a detector or the system is not
// I-CASH.
func (s *System) PollDetector() {
	if s.Detector == nil {
		return
	}
	for i, name := range s.shardSSDNames {
		s.Sharded.Shard(i).SetSSDQuarantined(s.Detector.AnySlow(name))
	}
}

// icashConfig sizes one I-CASH controller over dataBlocks virtual
// blocks — one shard's slice of the disk, so a shard is configured
// exactly like a small standalone controller.
func icashConfig(dataBlocks, ssdBlocks, deltaRAM, dataRAM, vmImageBlocks int64) core.Config {
	// The log must comfortably hold the live delta volume of a fully
	// delta-represented data set (a 4 KB log block packs roughly ten
	// deltas) plus cleaning headroom.
	logBlocks := dataBlocks / 2
	if logBlocks < 512 {
		logBlocks = 512
	}
	if logBlocks > 262144 {
		logBlocks = 262144
	}
	ccfg := core.NewDefaultConfig(dataBlocks, ssdBlocks, deltaRAM, dataRAM)
	ccfg.LogBlocks = logBlocks
	ccfg.VMImageBlocks = vmImageBlocks
	// The paper's scan period (2,000 I/Os) assumes a ~1M-block data
	// set; keep the scan frequency proportional on scaled-down runs
	// so reference selection keeps pace with the workload.
	scan := int(dataBlocks / 4)
	if scan > ccfg.ScanPeriod {
		scan = ccfg.ScanPeriod
	}
	if scan < 128 {
		scan = 128
	}
	ccfg.ScanPeriod = scan
	// Flush cadence scales the same way (the paper's 4,096-I/O
	// period assumes full-size runs).
	flush := int(dataBlocks / 8)
	if flush > ccfg.FlushPeriodOps {
		flush = ccfg.FlushPeriodOps
	}
	if flush < 64 {
		flush = 64
	}
	ccfg.FlushPeriodOps = flush
	ccfg.FlushDirtyBytes = ccfg.DeltaRAMBytes / 8
	// Virtual-block metadata is ~100 B per block (<0.3% of the data
	// size); track the whole virtual disk rather than thrash.
	ccfg.MetadataBlocks = int(dataBlocks) + 64
	return ccfg
}

// perShard splits a whole-array budget n ways. The floor keeps a tiny
// slice viable; it guards the division only, so a one-shard array gets
// exactly the budget its caller asked for.
func perShard(total int64, n int, floor int64) int64 {
	per := total / int64(n)
	if n > 1 && per < floor {
		per = floor
	}
	return per
}

// buildICASH assembles cfg.Shards (at least one) independent
// controllers, each over its own SSD+HDD pair sized to its LBA slice,
// and composes them with core.NewSharded under the system's one clock.
// RAM budgets and the SSD cache split evenly. The fault injectors, when
// requested, attach to shard 0 only, under that shard's station
// namespace.
func buildICASH(s *System, cfg BuildConfig) error {
	nsh := cfg.Shards
	if nsh < 1 {
		nsh = 1
	}
	per := (cfg.DataBlocks + int64(nsh) - 1) / int64(nsh)
	if cfg.VMImageBlocks > 0 {
		// Align so no VM image straddles a shard boundary: the session
		// partitions of the block service map whole VMs to shards, and
		// first-load pairing needs image-offset twins co-resident.
		per = (per + cfg.VMImageBlocks - 1) / cfg.VMImageBlocks * cfg.VMImageBlocks
	}
	ssdBlocks := perShard(cacheBlocks(cfg), nsh, 64)
	deltaRAM := perShard(orDefault(cfg.DeltaRAMBytes, 32<<20), nsh, per*512)
	dataRAM := perShard(orDefault(cfg.DataRAMBytes, 32<<20), nsh, 512<<10)

	shards := make([]*core.Controller, nsh)
	for i := 0; i < nsh; i++ {
		ccfg := icashConfig(per, ssdBlocks, deltaRAM, dataRAM, cfg.VMImageBlocks)
		logBlocks := ccfg.LogBlocks
		if cfg.Tune != nil {
			cfg.Tune(&ccfg)
		}
		// A tune that shrinks the log keeps the derived HDD, and so its
		// seek geometry (hdd.DefaultConfig derives it from capacity).
		sdev := ssd.New(cachePartitionConfig(max(ssdBlocks, ccfg.SSDBlocks)))
		h := hdd.New(hdd.DefaultConfig(per + max(logBlocks, ccfg.LogBlocks)))
		s.SSDs = append(s.SSDs, sdev)
		s.HDDs = append(s.HDDs, h)
		base := int64(i) * per
		s.fills = append(s.fills, func(f blockdev.FillFunc) {
			tf := func(lba int64, buf []byte) { f(base+lba, buf) }
			sdev.SetFill(tf)
			h.SetFill(tf)
		})
		var ssdDev, hddDev blockdev.Device = sdev, h
		if i == 0 && cfg.FaultSSD != nil {
			s.SSDFault = wrapFault(ssdDev, cfg.FaultSSD, s.Clock, ShardStation(0, nsh, "ssd"))
			ssdDev = s.SSDFault
			s.resets = append(s.resets, s.SSDFault.ResetStats)
		}
		if i == 0 && cfg.FaultHDD != nil {
			s.HDDFault = wrapFault(hddDev, cfg.FaultHDD, s.Clock, ShardStation(0, nsh, "hdd0"))
			hddDev = s.HDDFault
			s.resets = append(s.resets, s.HDDFault.ResetStats)
		}
		shardCPU := cpumodel.NewAccountant()
		s.ShardCPUs = append(s.ShardCPUs, shardCPU)
		s.resets = append(s.resets, sdev.ResetStats, h.ResetStats, shardCPU.Reset)
		ctrl, err := core.New(ccfg, ssdDev, hddDev, s.Clock, shardCPU)
		if err != nil {
			return fmt.Errorf("harness: shard %d: %w", i, err)
		}
		s.bases = append(s.bases, func(b blockdev.Basis) {
			hb := homeBasis{b, base, per}
			h.SetBasis(hb)
			ctrl.SetBasis(hb)
		})
		shards[i] = ctrl
	}
	sc, err := core.NewSharded(shards)
	if err != nil {
		return err
	}
	s.Sharded = sc
	s.Dev = sc
	s.resets = append(s.resets, sc.ResetStats)
	// Flush fans across the shards: each drains only shard-local state,
	// results are index-gathered, and the first-index error wins — same
	// determinism argument as every other ForEachPoint use.
	s.flush = func() error {
		return ForEachPoint(s.workers, sc.NumShards(), func(i int) error {
			if err := sc.Shard(i).Flush(); err != nil {
				return fmt.Errorf("harness: shard %d flush: %w", i, err)
			}
			return nil
		})
	}
	return nil
}

// wrapFault interposes a fault injector configured by fc on dev, on the
// system clock, defaulting its station name to station.
func wrapFault(dev blockdev.Device, fc *fault.Config, clock *sim.Clock, station string) *fault.Device {
	c := *fc
	c.Clock = clock
	if c.Station == "" {
		c.Station = station
	}
	return fault.Wrap(dev, c)
}

// cachePartitionConfig builds the SSD device for a cache-sized
// partition. The paper carves 128 MB - 1 GB partitions out of an 80 GB
// ioDrive, so the flash behind a partition is effectively heavily
// over-provisioned and garbage collection is mild; OverProvision = 1
// models that.
func cachePartitionConfig(blocks int64) ssd.Config {
	c := ssd.DefaultConfig(blocks)
	c.OverProvision = 1.0
	return c
}

// cacheBlocks returns the SSD size for the cache systems, defaulting to
// the paper's ~10% of the data set.
func cacheBlocks(cfg BuildConfig) int64 {
	if cfg.SSDCacheBlocks > 0 {
		return cfg.SSDCacheBlocks
	}
	b := cfg.DataBlocks / 10
	if b < 64 {
		b = 64
	}
	return b
}

func orDefault(v, def int64) int64 {
	if v > 0 {
		return v
	}
	return def
}
