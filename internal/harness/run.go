package harness

import (
	"fmt"

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
	// QueueWait is the per-block device queueing delay distribution
	// (empty at QD=1 on one stream: one request never queues).
	QueueWait metrics.Histogram
	// Stations is the per-station utilization/queue accounting from the
	// concurrency engine; nil at QD=1 on one stream.
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

// Populate writes the whole data set through the system, mirroring the
// benchmarks' own setup phases (database load, VM image creation,
// §4.4): by the time measurement starts the storage system has seen the
// data, I-CASH has selected references, and caches hold their steady
// working sets. Populate time and device activity are not measured.
//
// The load is cut into independent units — one per I-CASH shard, one
// for a baseline system — fanned across ForEachPoint workers, and the
// result is byte-identical at every worker count:
//
//   - units share no mutable state (a shard has its own devices,
//     controller and CPU accountant), so each worker's writes are a
//     closed system;
//   - the clock is never advanced inside the fan (nothing in the write
//     path reads it, and the scrubber — the controller's only clock
//     reader — cannot fire at a frozen instant); the load's simulated
//     duration (10 µs per block) is applied once after the join;
//   - workers running side by side each use a fresh generator clone:
//     Fill is deterministic per (profile, options, lba) but memoizes
//     family bases, so clones keep the oracle race-free, and each
//     unit's devices get the clone's fill. A lone unit loads through
//     gen itself, which leaves gen's memo warm for the run.
func Populate(sys *System, gen *workload.Generator) error {
	n := gen.DataBlocks()
	if n > sys.Dev.Blocks() {
		n = sys.Dev.Blocks()
	}
	units, per := 1, n
	setFill := func(_ int, f blockdev.FillFunc) { sys.SetFill(f) }
	if sc := sys.Sharded; sc != nil {
		units, per, setFill = sc.NumShards(), sc.ShardBlocks(), sys.SetShardFill
	}
	p, opts := gen.Profile(), gen.Options()
	err := ForEachPoint(units, func(i int) error {
		g := gen
		if units > 1 {
			g = workload.NewGenerator(p, opts)
		}
		setFill(i, g.Fill)
		lo, hi := int64(i)*per, int64(i+1)*per
		if hi > n {
			hi = n
		}
		buf := blockdev.GetBlock()
		defer blockdev.PutBlock(buf)
		for lba := lo; lba < hi; lba++ {
			g.Fill(lba, buf)
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

// Run drives gen against sys to completion and collects a Result. The
// generator must be freshly Reset; the system must be freshly built.
// Populate is normally called first.
//
// The issue mode comes from the generator's options: QueueDepth
// outstanding requests per stream, one stream per VM under StreamPerVM.
// The model is closed-loop trace-and-replay on the discrete-event
// engine. Each stream owns qd issue tokens; a token issues a request,
// and when that request completes the token issues the next one — the
// scheduler interleaves all tokens of all streams by virtual completion
// time. Each block of a request walks the device stack synchronously
// (the stack is ordinary sequential code); the devices note every
// station visit (SSD channel, HDD actuator) with its service time, and
// the engine replays those visits onto the station timelines starting
// at the block's arrival instant to discover the queueing delays
// concurrent requests inflict on each other. A block's response time is
// its uncontended service time plus those queue waits; a request
// completes when its last block does.
//
// Background device work a request triggers (I-CASH log appends,
// destages) occupies its stations just like foreground work: later
// requests landing on the same actuator wait behind it. That is the
// backpressure a real drive exerts, and it is the deliberate design
// choice here — background traffic contends for arms and channels the
// moment requests overlap. One token on one stream never overlaps
// anything, so such a run does not trace: no station visit is replayed,
// no queue wait recorded, and the result carries no station table.
//
// Determinism: everything runs on one goroutine, the scheduler breaks
// timestamp ties in schedule order, and stack state mutates in event
// order — same seed, same results, regardless of GOMAXPROCS.
func Run(sys *System, gen *workload.Generator) (*Result, error) {
	opts := gen.Options()
	qd := opts.QueueDepth
	if qd < 1 {
		qd = 1
	}
	streams := []*workload.Generator{gen}
	if opts.StreamPerVM {
		if vs := gen.VMStreams(); vs != nil {
			streams = vs
		}
	}
	trace := qd > 1 || len(streams) > 1

	p := gen.Profile()
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

	clock := sys.Clock
	sch := event.NewScheduler(clock)
	start := clock.Now()
	maxDone := start
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	var runErr error

	// One issue closure per stream, reused for every request of every
	// token of that stream, so scheduling a completion allocates nothing.
	issuers := make([]func(), len(streams))
	issue := func(si int) {
		if runErr != nil {
			return
		}
		gen, pc := streams[si], caches[si]
		req, ok := gen.Next()
		if !ok {
			return // this token retires; the stream is drained
		}
		res.Ops++
		sys.CPU.ChargeApp(p.AppCPU)
		arrival := clock.Now().Add(p.AppCPU)
		for i := 0; i < req.Blocks; i++ {
			lba := req.LBA + int64(i)
			if lba >= sys.Dev.Blocks() {
				break
			}
			if !req.Write && pc.lookup(lba) {
				res.ReadHist.Record(pageCacheHitLatency)
				arrival = arrival.Add(pageCacheHitLatency)
				continue
			}
			if trace {
				sys.Tracer.Begin()
			}
			var d sim.Duration
			var err error
			op := "read"
			if req.Write {
				op = "write"
				gen.WriteContent(lba, buf)
				d, err = sys.Dev.WriteBlock(lba, buf)
			} else {
				d, err = sys.Dev.ReadBlock(lba, buf)
			}
			if err != nil {
				runErr = fmt.Errorf("harness: %s %s lba %d: %w", sys.Name(), op, lba, err)
				return
			}
			if trace {
				wait := event.Replay(sys.Tracer.Take(), arrival)
				sys.PollDetector()
				res.QueueWait.Record(wait)
				d += wait
			}
			pc.insert(lba)
			if req.Write {
				res.Writes++
				res.WriteHist.Record(d)
			} else {
				res.Reads++
				res.ReadHist.Record(d)
			}
			arrival = arrival.Add(d)
		}
		if arrival > maxDone {
			maxDone = arrival
		}
		// The token's next request issues when this one completes.
		sch.At(arrival, issuers[si])
	}

	for si := range streams {
		si := si
		issuers[si] = func() { issue(si) }
	}
	// Prime the pump: qd tokens per stream, all issuing at the start
	// instant, interleaved stream-by-stream for fairness.
	for t := 0; t < qd; t++ {
		for _, fn := range issuers {
			sch.After(0, fn)
		}
	}
	sch.Run()
	if runErr != nil {
		return nil, runErr
	}
	// The last events are issues; the run ends when the last request
	// completes.
	if maxDone > clock.Now() {
		clock.AdvanceTo(maxDone)
	}
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
	finalize(sys, res, p, start)
	if trace {
		for _, st := range sys.Stations {
			res.Stations = append(res.Stations, st.Snapshot(res.Elapsed))
		}
	}
	return res, nil
}

// finalize computes the derived measurements of a finished run (rates,
// CPU utilization, device and power accounting) from the system's
// current state.
func finalize(sys *System, res *Result, p workload.Profile, start sim.Time) {
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
	Opts    workload.Options
	Order   []Kind
	Results map[Kind]*Result
	// SysSharded keeps the I-CASH controller handle for inspection
	// tools, which break out per-shard state from it.
	SysSharded *core.ShardedController
}

// benchConfig derives the scaled build configuration for profile p.
// It is computed once per benchmark and shared read-only by every
// (profile, system) point.
func benchConfig(p workload.Profile, opts workload.Options) BuildConfig {
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
	return cfg
}

// ConfigForProfile returns the scaled build configuration RunBenchmark
// would use for profile p — the hook external run-drivers (the block-
// service front-end) use to build systems identical to the in-process
// harness's, so served and direct runs are comparable point for point.
func ConfigForProfile(p workload.Profile, opts workload.Options) BuildConfig {
	return benchConfig(p, opts)
}

// pointResult is the output of one independent experiment point.
type pointResult struct {
	res     *Result
	sharded *core.ShardedController
}

// runPoint executes one (profile, system) point in full isolation: a
// fresh system build and a fresh workload generator, so concurrent
// points share nothing mutable. A fresh generator is equivalent to the
// historical shared-generator-plus-Reset pattern (NewGenerator is
// Reset), so the simulated numbers are bit-identical either way.
func runPoint(p workload.Profile, opts workload.Options, cfg BuildConfig, k Kind) (pointResult, error) {
	sys, err := Build(k, cfg)
	if err != nil {
		return pointResult{}, err
	}
	gen := workload.NewGenerator(p, opts)
	sys.SetFill(gen.Fill)
	if err := Populate(sys, gen); err != nil {
		return pointResult{}, fmt.Errorf("harness: %s on %s: %w", p.Name, k, err)
	}
	res, err := Run(sys, gen)
	if err != nil {
		return pointResult{}, fmt.Errorf("harness: %s on %s: %w", p.Name, k, err)
	}
	return pointResult{res: res, sharded: sys.Sharded}, nil
}

// RunBenchmark executes profile p on each requested system (all five
// when systems is nil) with identical request streams. The per-system
// points are independent and fan across Parallelism() workers; results
// are gathered in the systems' submission order, so the BenchmarkRun is
// identical whatever the worker count.
func RunBenchmark(p workload.Profile, opts workload.Options, systems []Kind) (*BenchmarkRun, error) {
	if systems == nil {
		systems = AllKinds()
	}
	br := &BenchmarkRun{Profile: p, Opts: opts, Order: systems, Results: make(map[Kind]*Result)}
	cfg := benchConfig(p, opts)
	points := make([]pointResult, len(systems))
	err := ForEachPoint(len(systems), func(i int) error {
		pt, err := runPoint(p, opts, cfg, systems[i])
		if err != nil {
			return err
		}
		points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range systems {
		br.Results[k] = points[i].res
		if points[i].sharded != nil {
			br.SysSharded = points[i].sharded
		}
	}
	return br, nil
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
