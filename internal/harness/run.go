package harness

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/fault"
	"icash/internal/metrics"
	"icash/internal/power"
	"icash/internal/sim"
	"icash/internal/sim/event"
	"icash/internal/workload"
)

// pageCacheHitLatency is the service time of a guest page-cache hit.
const pageCacheHitLatency = 2 * sim.Microsecond

// Result is one (system, benchmark) measurement, carrying everything
// any figure or table of §5 needs.
type Result struct {
	System    string
	Benchmark string

	Ops    int64
	Reads  int64 // block reads issued to the system (page-cache misses)
	Writes int64

	// ReadHist and WriteHist are block-level response-time
	// distributions, including guest page-cache hits (the prototype
	// measures at the virtual-disk level): exact sums for the means, and
	// percentile buckets (p50/p95/p99/p999) — tail latency is the signal
	// the fail-slow experiments care about, and means hide it.
	ReadHist  metrics.Histogram
	WriteHist metrics.Histogram

	Elapsed   sim.Duration
	TxnPerSec float64
	ReqPerSec float64
	CPUUtil   float64

	PageCacheHitRatio float64

	// QueueDepth and Streams describe the issue mode that produced the
	// result: outstanding requests per stream and number of interleaved
	// per-VM streams.
	QueueDepth int
	Streams    int
	// QueueWait is the per-block device queueing delay distribution:
	// the wait behind other requests and behind background device work
	// (log appends, writebacks, destages).
	QueueWait metrics.Histogram
	// Stations is the per-station utilization/queue accounting from the
	// concurrency engine, one entry per device station.
	Stations []metrics.StationStats

	// SSD wear metrics (Table 6 and §5.3).
	SSDHostWrites int64
	SSDErases     int64
	SSDWriteAmp   float64

	// HDDBusy is total mechanical busy time across disks.
	HDDBusy sim.Duration
	// HDDOps counts requests reaching the disks.
	HDDOps int64

	// WattHours is the paper's Table 5 energy metric.
	WattHours float64

	// ICASHStats is a copy of the controller stats (I-CASH runs only).
	ICASHStats *core.Stats
	// KindCounts is the block-population mix (I-CASH runs only).
	KindCounts core.KindCounts

	// Degraded reports whether the controller finished the run in
	// HDD-only degraded mode (fault-injection runs only).
	Degraded bool
	// SSDFaultStats / HDDFaultStats are the injector's accounting when
	// the build requested fault injection; nil otherwise.
	SSDFaultStats *fault.Stats
	HDDFaultStats *fault.Stats
}

// DataSet is the content Populate loads: DataBlocks blocks, block lba
// written as Fill leaves it and kept against its Basis block. Fill and
// Basis must be deterministic per lba and safe to call from several
// goroutines at once. *workload.Generator is one.
type DataSet interface {
	DataBlocks() int64
	Fill(lba int64, buf []byte)
	blockdev.Basis
}

// Populate writes the whole data set through the system, mirroring the
// benchmarks' own setup phases (database load, VM image creation,
// §4.4): by the time measurement starts the storage system has seen the
// data, I-CASH has selected references, and caches hold their steady
// working sets. Populate time and device activity are not measured.
//
// The load is cut into independent units — one per I-CASH shard, one
// for a baseline system — fanned across the build's BuildConfig.Workers
// ForEachPoint workers, and the result is byte-identical at every
// worker count:
//
//   - units share no mutable state (a shard has its own devices,
//     controller and CPU accountant), so each worker's writes are a
//     closed system;
//   - the clock is never advanced inside the fan (nothing in the write
//     path reads it, and the scrubber — the controller's only clock
//     reader — cannot fire at a frozen instant); the load's simulated
//     duration (10 µs per block) is applied once after the join;
//   - every unit loads through ds, whose Fill and Basis are
//     deterministic per lba and safe to share.
//
// Before the first write it installs ds as the data set's basis, so
// the stores that hold data-set blocks, and each I-CASH controller's
// RAM data cache, keep them as differences from their family bases
// (System.SetBasis). It installs no fill: the initial-content oracle
// is the caller's (System.SetFill).
func Populate(sys *System, ds DataSet) error {
	n := ds.DataBlocks()
	if n > sys.Dev.Blocks() {
		n = sys.Dev.Blocks()
	}
	units, per := 1, n
	if sc := sys.Sharded; sc != nil {
		units, per = sc.NumShards(), sc.ShardBlocks()
	}
	sys.SetBasis(ds)
	err := ForEachPoint(sys.workers, units, func(i int) error {
		lo, hi := int64(i)*per, int64(i+1)*per
		if hi > n {
			hi = n
		}
		buf := blockdev.GetBlock()
		defer blockdev.PutBlock(buf)
		for lba := lo; lba < hi; lba++ {
			ds.Fill(lba, buf)
			if _, err := sys.Dev.WriteBlock(lba, buf); err != nil {
				return fmt.Errorf("harness: %s populate lba %d: %w", sys.Name(), lba, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := sys.Flush(); err != nil {
		return fmt.Errorf("harness: %s populate flush: %w", sys.Name(), err)
	}
	sys.Clock.Advance(sim.Duration(n) * 10 * sim.Microsecond)
	sys.ResetStats()
	return nil
}

// BuildPopulated builds the system of kind k sized for (p, opts),
// installs the generator as its initial-content oracle and loads the
// data set through it, returning the system with the generator that is
// both its request stream and its content oracle — the setup every
// run-driver (Run's points, the served simulation, the TCP front-end)
// shares, so their systems are comparable point for point.
func BuildPopulated(k Kind, p workload.Profile, opts workload.Options) (*System, *workload.Generator, error) {
	sys, err := Build(k, ConfigForProfile(p, opts))
	if err != nil {
		return nil, nil, err
	}
	gen := workload.NewGenerator(p, opts)
	sys.SetFill(gen.Fill)
	if err := Populate(sys, gen); err != nil {
		return nil, nil, err
	}
	return sys, gen, nil
}

// TracedOp issues one block read or write as seen from arrival — the
// one trace-and-replay step every run shares. The block walks the
// device stack synchronously (the stack is ordinary sequential code)
// while the devices note every station visit (SSD channel, HDD
// actuator) with its service time; the visits are then replayed onto
// the station timelines from arrival to discover the queueing delay
// concurrent requests inflict on each other, and the slow-device
// detector is polled on what the stations just observed. The block's
// response time is svc + wait.
//
// Background device work the op triggers (I-CASH log appends, destages)
// occupies its stations just like foreground work: later requests on
// the same actuator wait behind it, the backpressure a real drive
// exerts. A failing walk is taken and replayed like any other: its
// visits so far are charged to their stations and the tracer is left
// idle, so a later untraced walk cannot append to a dead trace.
//
// The tracer is the one of the shard lba routes to: a walk touches only
// that shard's devices, so it collects what one shared tracer would, and
// two shard groups of a run (Run) never note into the same one.
func (s *System) TracedOp(write bool, lba int64, buf []byte, arrival sim.Time) (svc, wait sim.Duration, err error) {
	tr := s.Tracers[0]
	if sc := s.Sharded; sc != nil && lba >= 0 && lba < sc.Blocks() {
		i, _ := sc.Route(lba)
		tr = s.Tracers[i]
	}
	tr.Begin()
	if write {
		svc, err = s.Dev.WriteBlock(lba, buf)
	} else {
		svc, err = s.Dev.ReadBlock(lba, buf)
	}
	wait = event.Replay(tr.Take(), arrival)
	s.PollDetector()
	return svc, wait, err
}

// Pump runs a closed loop of streams x tokens issue tokens on the
// discrete-event engine, on the system clock. A token calls
// step(stream) at the current instant; step performs one request and
// returns the instant it completes, and the token issues again then —
// the scheduler interleaves all tokens of all streams by virtual
// completion time. Tokens are primed at the current instant, stream by
// stream for fairness. A step that returns io.EOF retires its token
// (the stream is drained); any other error stops every token and is
// returned. On return the clock stands at the last completion.
//
// Determinism: the loop runs on the calling goroutine, the scheduler
// breaks timestamp ties in schedule order, and stack state mutates in
// event order — same seed, same results, regardless of GOMAXPROCS. Each
// stream reuses one closure, so scheduling a completion allocates
// nothing.
func (s *System) Pump(streams, tokens int, step func(stream int) (sim.Time, error)) error {
	return pump(s.Clock, streams, tokens, step)
}

// pump is Pump's loop on a given clock: the system clock, or the
// private clock of one of Run's shard groups.
func pump(clock *sim.Clock, streams, tokens int, step func(stream int) (sim.Time, error)) error {
	sch := event.NewScheduler(clock)
	last := clock.Now()
	var failed error
	issuers := make([]func(), streams)
	for si := range issuers {
		issuers[si] = func() {
			if failed != nil {
				return
			}
			done, err := step(si)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					failed = err
				}
				return
			}
			if done > last {
				last = done
			}
			sch.At(done, issuers[si])
		}
	}
	for t := 0; t < tokens; t++ {
		for _, fn := range issuers {
			sch.After(0, fn)
		}
	}
	sch.Run()
	if failed != nil {
		return failed
	}
	clock.AdvanceTo(last) // the last events are issues, not completions
	return nil
}

// Run drives gen against sys to completion and collects a Result. The
// generator must be freshly Reset; the system must be freshly built.
// Populate is normally called first.
//
// The issue mode comes from the generator's options: QueueDepth issue
// tokens per stream on the pump, one stream per VM under StreamPerVM.
// A request's blocks issue back to back, each as seen from the
// completion of the one before, and the request completes when its last
// block does. Every block goes through TracedOp, so even one token on
// one stream waits behind the background device work earlier requests
// left on the stations.
//
// The streams run in shard groups (runGroups). Where a group is one
// shard's streams, no event of another group ever reaches it: a token's
// next issue is scheduled only by its own completion, and a step
// touches only its streams, its shard's controller, devices, stations
// and tracer, its group's partial results and its group's clock. So
// each group runs the same pump and step on a private clock that starts
// at the run's instant, the groups fan across Options.Workers, and the
// partials merge in group order: within a group, events keep their
// (time, seq) order under a per-group sequence number, and the result is
// the one loop's to the byte. The system clock stays frozen during the
// fan and advances once after the join to the latest completion, the
// argument Populate makes. A failing group stops only its own tokens;
// Run returns the lowest-index group's error. A run that cannot split is
// one group on the system clock, pumped on the calling goroutine.
//
// Every group draws its streams' requests and write contents from one
// stream stage (streamStage). A run of one group whose streams write
// has a producer on a second worker, when Options.Workers leaves it
// one; the result is the same to the byte however the stage is fed.
func Run(sys *System, gen *workload.Generator) (*Result, error) {
	p, opts := gen.Profile(), gen.Options()
	qd := max(opts.QueueDepth, 1)
	streams := gen.Streams()

	res := &Result{
		System: sys.Name(), Benchmark: p.Name,
		QueueDepth: qd, Streams: len(streams),
	}
	sys.SetFill(gen.Fill)

	// Guest page cache, one per stream (each stream is one guest VM with
	// its own RAM): the profile's PCFraction of VM RAM, scaled like the
	// data set (databases with direct I/O barely use it; file and mail
	// servers cache aggressively).
	frac := p.PCFraction
	if frac <= 0 {
		frac = 0.25
	}
	pcBlocks := int(frac * float64(p.VMRAMBytes/blockdev.BlockSize) *
		float64(gen.DataBlocks()) / float64(p.DataBlocks()))
	caches := make([]*pageCache, len(streams))
	for i := range caches {
		caches[i] = newPageCache(pcBlocks)
	}

	start := sys.Clock.Now()
	groups := runGroups(sys, streams)
	// A producer pays where it takes write content off the pump. Drawing
	// only reads ahead, its hand-overs cost the pump as much as the draws
	// they save; several groups at once it has not been measured on.
	roles := 1
	if len(groups) == 1 && p.ReadFraction() < 1 && resolveWorkers(opts.Workers) >= 2 {
		roles = 2
	}
	devBlocks := sys.Dev.Blocks()
	err := ForEachPoint(opts.Workers, len(groups), func(gi int) error {
		grp := &groups[gi]
		grp.clock = sys.Clock
		if len(groups) > 1 {
			grp.clock = sim.NewClock()
			grp.clock.AdvanceTo(start)
		}
		st := newStreamStage(streams, grp.streams, roles == 2)
		defer st.release()
		return ForEachPoint(roles, roles, func(role int) error {
			if role == 1 {
				st.produce(devBlocks)
				return nil
			}
			defer st.stop()
			return grp.drive(sys, p, qd, st, caches)
		})
	})
	if err != nil {
		return nil, err
	}
	for i := range groups {
		grp := &groups[i]
		res.Ops += grp.ops
		res.Reads += grp.reads
		res.Writes += grp.writes
		res.ReadHist.Merge(&grp.read)
		res.WriteHist.Merge(&grp.write)
		res.QueueWait.Merge(&grp.wait)
		sys.Clock.AdvanceTo(grp.clock.Now())
	}
	sys.CPU.ChargeApp(sim.Duration(res.Ops) * p.AppCPU)
	if err := sys.Flush(); err != nil {
		return nil, fmt.Errorf("harness: %s flush: %w", sys.Name(), err)
	}

	var hits, total float64
	for _, pc := range caches {
		hits += float64(pc.hits)
		total += float64(pc.hits + pc.misses)
	}
	if total > 0 {
		res.PageCacheHitRatio = hits / total
	}
	Finish(sys, res, p, start)
	return res, nil
}

// runGroup is one independent slice of a run: the streams it drives,
// the clock they run on, and what they accumulate.
type runGroup struct {
	streams []int // indices into the run's streams, ascending
	clock   *sim.Clock

	ops, reads, writes int64
	read, write, wait  metrics.Histogram
}

// drive pumps the group's streams on its clock, qd tokens each, drawing
// stream k's requests and write contents from st's stream k.
func (grp *runGroup) drive(sys *System, p workload.Profile, qd int, st *streamStage, caches []*pageCache) error {
	clock := grp.clock
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	return pump(clock, len(grp.streams), qd, func(k int) (sim.Time, error) {
		pc := caches[grp.streams[k]]
		req, ok := st.next(k)
		if !ok {
			return 0, io.EOF
		}
		grp.ops++
		arrival := clock.Now().Add(p.AppCPU)
		for i := 0; i < req.Blocks; i++ {
			lba := req.LBA + int64(i)
			if lba >= sys.Dev.Blocks() {
				break
			}
			if !req.Write && pc.lookup(lba) {
				grp.read.Record(pageCacheHitLatency)
				arrival = arrival.Add(pageCacheHitLatency)
				continue
			}
			op, b := "read", buf
			if req.Write {
				op, b = "write", st.content(k, lba, buf)
			}
			d, wait, err := sys.TracedOp(req.Write, lba, b, arrival)
			grp.wait.Record(wait)
			d += wait
			if err != nil {
				return 0, fmt.Errorf("harness: %s %s lba %d: %w", sys.Name(), op, lba, err)
			}
			pc.insert(lba)
			if req.Write {
				grp.writes++
				grp.write.Record(d)
			} else {
				grp.reads++
				grp.read.Record(d)
			}
			arrival = arrival.Add(d)
		}
		return arrival, nil
	})
}

// runGroups partitions a run's streams into shard groups, one per shard
// that owns a stream, in shard order. A run splits only when:
//   - the system is a sharded array driven through its own device
//     surface (a caller's wrapper around sys.Dev may share state across
//     shards);
//   - every stream's Span lies inside one shard;
//   - nothing on the request path reads the shared clock or feeds a
//     shared watch: no armed scrubber, no fault injector, no
//     slow-device detector.
//
// Otherwise the run is one group of every stream.
func runGroups(sys *System, streams []*workload.Generator) []runGroup {
	one := []runGroup{{streams: make([]int, len(streams))}}
	for i := range one[0].streams {
		one[0].streams[i] = i
	}
	sc := sys.Sharded
	if sc == nil || len(streams) < 2 || sys.Dev != blockdev.Device(sc) ||
		sys.SSDFault != nil || sys.HDDFault != nil || sys.Detector != nil ||
		slices.ContainsFunc(sc.Shards(), (*core.Controller).Scrubbing) {
		return one
	}
	byShard := make([][]int, sc.NumShards())
	for si, g := range streams {
		lo, hi := g.Span()
		hi = min(hi, sc.Blocks())
		if lo >= hi {
			return one
		}
		first, _ := sc.Route(lo)
		if last, _ := sc.Route(hi - 1); last != first {
			return one
		}
		byShard[first] = append(byShard[first], si)
	}
	var groups []runGroup
	for _, ids := range byShard {
		if len(ids) > 0 {
			groups = append(groups, runGroup{streams: ids})
		}
	}
	return groups
}

// Finish computes the derived measurements of a run that started at
// start and has just finished (rates, CPU utilization, device station
// snapshots, device, power and controller accounting) from the system's
// current state and the op counts in res. Every run driver ends with
// it: Run, and the served simulation (server.RunServed).
func Finish(sys *System, res *Result, p workload.Profile, start sim.Time) {
	clock := sys.Clock
	res.Elapsed = clock.Now().Sub(start)
	secs := res.Elapsed.Seconds()
	if secs > 0 {
		res.ReqPerSec = float64(res.Ops) / secs
		txn := p.IOsPerTxn
		if txn <= 0 {
			txn = 1
		}
		res.TxnPerSec = float64(res.Ops) / float64(txn) / secs
	}

	// CPU utilization: the benchmark's application level plus the
	// storage stack's measured compute share (the paper's figures show
	// I-CASH adding a few percent at most).
	storageShare := 0.0
	if res.Elapsed > 0 {
		storageShare = float64(sys.StorageCPUTime()) / float64(res.Elapsed)
	}
	res.CPUUtil = p.BaseCPUUtil + storageShare
	if res.CPUUtil > 0.99 {
		res.CPUUtil = 0.99
	}

	// Device-level accounting.
	var usage power.Usage
	usage.CPUBusy = sys.CPUBusy()
	if ssdStats := sys.ssdStats(); ssdStats != nil {
		st := *ssdStats
		res.SSDHostWrites = st.HostWrites
		res.SSDErases = st.Erases
		res.SSDWriteAmp = st.WriteAmplification()
		usage.SSDReads = st.Reads
		usage.SSDWrites = st.HostWrites
		usage.SSDErases = st.Erases
	}
	for _, h := range sys.HDDs {
		res.HDDBusy += h.Stats.ReadTime + h.Stats.WriteTime
		res.HDDOps += h.Stats.Ops()
	}
	usage.HDDBusy = res.HDDBusy
	res.WattHours = power.DefaultModel().WattHours(usage)
	for _, st := range sys.Stations {
		res.Stations = append(res.Stations, st.Snapshot(res.Elapsed))
	}

	if sys.Sharded != nil {
		st := sys.Sharded.Stats()
		res.ICASHStats = &st
		res.KindCounts = sys.Sharded.KindCounts()
		res.Degraded = sys.Sharded.Degraded()
	}
	if sys.SSDFault != nil {
		st := sys.SSDFault.Stats
		res.SSDFaultStats = &st
	}
	if sys.HDDFault != nil {
		st := sys.HDDFault.Stats
		res.HDDFaultStats = &st
	}
}

// BenchmarkRun bundles the per-system results of one benchmark.
type BenchmarkRun struct {
	Profile workload.Profile
	Order   []Kind
	Results map[Kind]*Result
	// SysSharded keeps the I-CASH controller handle for inspection
	// tools, which break out per-shard state from it.
	SysSharded *core.ShardedController
}

// ConfigForProfile derives the scaled build configuration for profile
// p under opts: what BuildPopulated builds, exported for run-drivers
// that build and populate for themselves.
func ConfigForProfile(p workload.Profile, opts workload.Options) BuildConfig {
	gen := workload.NewGenerator(p, opts)
	scale := float64(gen.DataBlocks()) / float64(p.DataBlocks())
	cfg := BuildConfig{
		DataBlocks:     gen.DataBlocks(),
		SSDCacheBlocks: scaleBlocks(p.SSDCacheBytes, scale),
		DeltaRAMBytes:  scaleBytes(p.DeltaRAMBytes, scale),
		DataRAMBytes:   scaleBytes(p.DeltaRAMBytes, scale),
	}
	// Scale compensation: synthetic deltas carry fixed overheads
	// (64-byte segments, op headers) that do not shrink with the data
	// set the way real content does, so guarantee the delta buffer can
	// hold a fully delta-represented data set (~512 B/block).
	if min := gen.DataBlocks() * 512; cfg.DeltaRAMBytes < min {
		cfg.DeltaRAMBytes = min
	}
	if p.VMs > 1 {
		cfg.VMImageBlocks = gen.ImageBlocks()
	}
	cfg.Tune = opts.TuneICASH
	cfg.Shards = opts.Shards
	cfg.Workers = opts.Workers
	return cfg
}

// Point is one independent experiment point: the request stream
// (profile and options, which also size the build) and the system kind.
type Point struct {
	Profile workload.Profile
	Opts    workload.Options
	Kind    Kind
}

// PointResult is the output of one point: the measurement and, for
// I-CASH, the controller handle (per-shard state for inspection).
type PointResult struct {
	Res     *Result
	Sharded *core.ShardedController
}

// RunPoints executes every point in full isolation — a fresh system
// build and a fresh workload generator each, so concurrent points share
// nothing mutable — fanned across workers, and returns the results
// gathered by index. The workers are a budget: each point runs with an
// equal share of it (at least one) as its Opts.Workers, so the fans
// inside a point (Populate, Run, the flush) add no goroutines beyond
// it. On failure it returns the lowest-index error (the one a serial
// loop would hit first) with the results of the points before it, so a
// caller renders exactly what the serial harness would have finished,
// whatever the worker count.
func RunPoints(workers int, pts []Point) ([]PointResult, error) {
	out := make([]PointResult, len(pts))
	share := WorkerShare(workers, len(pts))
	err := ForEachPoint(workers, len(pts), func(i int) error {
		pt := pts[i]
		pt.Opts.Workers = share
		sys, gen, err := BuildPopulated(pt.Kind, pt.Profile, pt.Opts)
		if err == nil {
			out[i].Res, err = Run(sys, gen)
		}
		if err != nil {
			return fmt.Errorf("harness: %s on %s: %w", pt.Profile.Name, pt.Kind, err)
		}
		out[i].Sharded = sys.Sharded
		return nil
	})
	if err != nil {
		for i := range out {
			if out[i].Res == nil {
				return out[:i], err
			}
		}
	}
	return out, err
}

// RunBenchmark executes profile p on each requested system (all five
// when systems is nil) with identical request streams, as one RunPoints
// fan over the systems.
func RunBenchmark(p workload.Profile, opts workload.Options, systems []Kind) (*BenchmarkRun, error) {
	if systems == nil {
		systems = AllKinds()
	}
	pts := make([]Point, len(systems))
	for i, k := range systems {
		pts[i] = Point{Profile: p, Opts: opts, Kind: k}
	}
	out, err := RunPoints(opts.Workers, pts)
	if err != nil {
		return nil, err
	}
	return newBenchmarkRun(p, systems, out), nil
}

// newBenchmarkRun bundles one benchmark's per-system point results.
func newBenchmarkRun(p workload.Profile, systems []Kind, out []PointResult) *BenchmarkRun {
	br := &BenchmarkRun{Profile: p, Order: systems, Results: make(map[Kind]*Result)}
	for i, k := range systems {
		br.Results[k] = out[i].Res
		if out[i].Sharded != nil {
			br.SysSharded = out[i].Sharded
		}
	}
	return br
}

// scaleBytes scales a byte budget, with a floor that keeps fixed
// overheads (segment rounding, metadata) from dominating tiny runs.
func scaleBytes(bytes int64, scale float64) int64 {
	b := int64(float64(bytes) * scale)
	if b < 512<<10 {
		b = 512 << 10
	}
	return b
}

// scaleBlocks converts an unscaled byte size to scaled blocks.
func scaleBlocks(bytes int64, scale float64) int64 {
	b := int64(float64(bytes) * scale / blockdev.BlockSize)
	if b < 64 {
		b = 64
	}
	return b
}
