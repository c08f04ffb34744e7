package main

import (
	"bytes"
	"fmt"
	"strings"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/sim"
	"icash/internal/workload"
)

// This file is the whole surface the in-process workloads bind to:
// harness.ConfigForProfile/Build/Populate/Run, BuildConfig.Shards,
// System.Dev/Flush/SetFill/StorageCPUTime, harness.Result (ReadHist and
// WriteHist, not the LatencyRecorder twins), core.Stats through
// Result.ICASHStats, core.Config.LogBlocks, and the workload generator.
// It deliberately avoids harness.SetShards/SetParallelism and
// System.ICASH/Sharded, which ROADMAP item 2 deletes. The served
// workload's binding (frame codec, Session, ShardRouter, ReplyTracker,
// the icash-serve binary) is serve.go; the per-layer probes bind each
// layer's public functions in probe.go.

// workloadSpec is one named workload. Sizes are constants: a change
// that makes a rep too short re-sizes in a benchmark issue of its own.
type workloadSpec struct {
	name string
	why  string

	profile     func() workload.Profile
	scale       float64
	queueDepth  int
	streamPerVM bool
	shards      int
	// logBlocks, when set, overrides the controller's delta-log size so
	// the log wraps and the cleaner runs; the run fails if it did not.
	logBlocks int64
	// baselines are the extra systems run once for simulated numbers
	// (FusionIO always runs: it is the denominator of the speed-up).
	baselines []harness.Kind
	// engine marks workloads that overlap requests on the event engine;
	// serial ones never schedule, so their event.* probes read 0.
	engine bool
	// writes marks streams that reach the write path, where the delta
	// codec probes apply.
	writes bool

	// serve is set on the one workload that runs through a spawned
	// icash-serve over TCP.
	serve *serveSpec
}

var workloads = []*workloadSpec{
	{
		name:    "oltp",
		why:     "SysBench, 1 client QD 1: the paper's headline and the fits-in-cache case; hot content-local pages load core RAM paths and the delta codec, never the event engine or server",
		profile: workload.SysBench, scale: 1.0 / 24, queueDepth: 1, shards: 1,
		baselines: []harness.Kind{harness.RAID0, harness.LRU, harness.Dedup},
		writes:    true,
	},
	{
		name:    "mail",
		why:     "LoadSim, uniform with 50% fresh writes, QD 1: the does-not-fit case where I-CASH loses; HDD home reads and SSD write-throughs guard content-locality work against its worst input",
		profile: workload.LoadSim, scale: 1.0 / 1024, queueDepth: 1, shards: 1,
		writes: true,
	},
	{
		name:    "randwrite-qd8",
		why:     "RandWrite, 1 stream QD 8, 512-block log that wraps: write-only delta encode, group commit, compaction and the HDD log station under overlap; the read path does nothing",
		profile: workload.RandWrite, scale: 1.0 / 25, queueDepth: 8, shards: 1,
		logBlocks: 512, engine: true, writes: true,
	},
	{
		name: "randread-shards4",
		why:  "RandRead, 64 streams QD 8 over 4 shards: read-only twin where scheduler, station replay and shard routing carry the load; a write-path gain predicts no change here",
		profile: func() workload.Profile {
			p := workload.RandRead()
			p.VMs = 64
			return p
		},
		scale: 1.0 / 20, queueDepth: 8, streamPerVM: true, shards: 4,
		engine: true,
	},
	{
		name:    "serve-tcp",
		why:     "spawned icash-serve (TPC-C 5VMs, 5 shards) driven over 2 TCP connections, window 8: the only real concurrency; frame decode, Session, ShardRouter and lockmap on real cores",
		profile: workload.TPCC5VM, scale: 1.0 / 64, queueDepth: 8, streamPerVM: true, shards: 5,
		writes: true,
		serve:  &serveSpec{conns: 2, window: 8, requests: 10000, readShare: 0.70, mutFrac: 0.02},
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options derives the generator options; the seed reaches the program
// only through the inputs generated from it.
func (w *workloadSpec) options(seed uint64) workload.Options {
	opts := workload.Options{
		Scale:       w.scale,
		Seed:        seed,
		QueueDepth:  w.queueDepth,
		StreamPerVM: w.streamPerVM,
	}
	if w.logBlocks > 0 {
		lb := w.logBlocks
		opts.TuneICASH = func(c *core.Config) { c.LogBlocks = lb }
	}
	return opts
}

// system is one built and populated stack with the generator that is
// both its request stream and its content oracle.
type system struct {
	sys *harness.System
	gen *workload.Generator
}

// setup builds the system of the given kind for w and loads the data
// set through it. This is what setup_s times on in-process workloads.
func (w *workloadSpec) setup(kind harness.Kind, seed uint64) (*system, error) {
	p, opts := w.profile(), w.options(seed)
	cfg := harness.ConfigForProfile(p, opts)
	cfg.Shards = w.shards
	sys, err := harness.Build(kind, cfg)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(p, opts)
	sys.SetFill(gen.Fill)
	if err := harness.Populate(sys, gen); err != nil {
		return nil, err
	}
	return &system{sys: sys, gen: gen}, nil
}

// run drives the generator's stream to completion.
func (s *system) run() (*harness.Result, error) {
	return harness.Run(s.sys, s.gen)
}

// verify reads every LBA back through sys.Dev and compares it with the
// generator's latest content. On a per-VM-stream workload the parent
// generator never advances; those streams are read-only here, so its
// initial fill is the expected content.
func (s *system) verify() (checked, bad int64, err error) {
	got := blockdev.GetBlock()
	defer blockdev.PutBlock(got)
	want := blockdev.GetBlock()
	defer blockdev.PutBlock(want)
	n := s.gen.DataBlocks()
	if b := s.sys.Dev.Blocks(); b < n {
		n = b
	}
	for lba := int64(0); lba < n; lba++ {
		if _, err := s.sys.Dev.ReadBlock(lba, got); err != nil {
			return checked, bad, fmt.Errorf("read-back lba %d: %w", lba, err)
		}
		s.gen.CurrentContent(lba, want)
		checked++
		if !bytes.Equal(got, want) {
			bad++
		}
	}
	return checked, bad, nil
}

// simFingerprint condenses every simulated quantity of a run into one
// comparable string: two reps of one seed must agree on it exactly.
func simFingerprint(r *harness.Result) string {
	var st core.Stats
	if r.ICASHStats != nil {
		st = *r.ICASHStats
	}
	return fmt.Sprintf("%d %d %d %d/%d %d/%d %d %d %v %d %d %v %+v",
		r.Ops, r.Reads, r.Writes,
		r.ReadHist.Count(), r.ReadHist.Sum(), r.WriteHist.Count(), r.WriteHist.Sum(),
		r.Elapsed, r.SSDHostWrites, r.SSDWriteAmp, r.HDDOps, r.HDDBusy, r.WattHours, st)
}

// respMeanUs is the mean simulated block response time over reads and
// writes together, from the exact sums (Histogram.Mean truncates).
func respMeanUs(read, write *metrics.Histogram) float64 {
	both := *read
	both.Merge(write)
	return histMeanUs(&both)
}

func histMeanUs(h *metrics.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum().Microseconds() / float64(h.Count())
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// simLayerValues maps one I-CASH result onto the exact (S) per-layer
// metrics.
func simLayerValues(s *system, r *harness.Result) values {
	v := values{
		"harness.pagecache_hit_ratio": r.PageCacheHitRatio,
		"harness.read_mean_us":        histMeanUs(&r.ReadHist),
		"harness.read_p99_us":         r.ReadHist.P99().Microseconds(),
		"harness.write_mean_us":       histMeanUs(&r.WriteHist),
		"harness.write_p99_us":        r.WriteHist.P99().Microseconds(),
		"ssd.reads":                   float64(ssdReads(s.sys)),
		"ssd.host_writes":             float64(r.SSDHostWrites),
		"ssd.writes_per_kop":          1000 * ratio(r.SSDHostWrites, r.Ops),
		"ssd.erases":                  float64(r.SSDErases),
		"ssd.write_amp":               r.SSDWriteAmp,
		"hdd.ops":                     float64(r.HDDOps),
		"hdd.busy_share":              ratio(int64(r.HDDBusy), int64(r.Elapsed)),
		"event.queue_wait_mean_us":    0,
		"cpumodel.storage_cpu_share":  ratio(int64(s.sys.StorageCPUTime()), int64(r.Elapsed)),
		"power.wh_per_mop":            1e6 * r.WattHours / float64(r.Ops),
	}
	if n := r.QueueWait.Count(); n > 0 {
		v["event.queue_wait_mean_us"] = r.QueueWait.Sum().Microseconds() / float64(n)
	}
	// Stations exist only when requests overlapped on the event engine.
	var stalls int64
	for _, class := range []string{"ssd", "hdd"} {
		var util float64
		var wait sim.Duration
		var ops int64
		for _, st := range r.Stations {
			// Station names are "ssd.ch0" and "hdd0", under an "s<i>."
			// prefix on a sharded stack.
			if !strings.Contains(st.Name, class) {
				continue
			}
			if st.Utilization > util {
				util = st.Utilization
			}
			wait += st.Wait.Sum()
			ops += st.Wait.Count()
			stalls += st.Stalls
		}
		v[class+".util_max"] = util
		v[class+".queue_wait_mean_us"] = 0
		if ops > 0 {
			v[class+".queue_wait_mean_us"] = wait.Microseconds() / float64(ops)
		}
	}
	v["event.stalls"] = float64(stalls)

	var st core.Stats
	if r.ICASHStats != nil {
		st = *r.ICASHStats
	}
	v["core.read_ram_hit_ratio"] = ratio(st.ReadRAMHits, st.Reads)
	v["core.read_ssd_hit_ratio"] = ratio(st.ReadSSDHits, st.Reads)
	v["core.read_log_load_ratio"] = ratio(st.ReadLogLoads, st.Reads)
	v["core.read_hdd_miss_ratio"] = ratio(st.ReadHDDMisses, st.Reads)
	v["core.write_delta_ratio"] = ratio(st.WriteDelta, st.Writes)
	v["core.write_through_ratio"] = ratio(st.WriteThroughSSD, st.Writes)
	v["core.write_independent_ratio"] = ratio(st.WriteIndependent, st.Writes)
	v["core.delta_mean_bytes"] = ratio(st.DeltaBytesStored, st.DeltaCount)
	v["core.txns_committed"] = float64(st.TxnsCommitted)
	v["core.commit_bytes_per_txn"] = ratio(st.GroupCommitBytes, st.TxnsCommitted)
	v["core.log_blocks_written"] = float64(st.LogBlocksWritten)
	v["core.cleaner_runs"] = float64(st.LogCleanerRuns)
	v["core.deltas_rescued"] = float64(st.DeltasRescued)
	v["core.commit_write_ms"] = st.CommitWriteTime.Milliseconds()
	v["core.background_hdd_ms"] = st.BackgroundHDDTime.Milliseconds()
	v["core.evict_data_ram"] = float64(st.EvictDataRAM)
	v["core.evict_delta_ram"] = float64(st.EvictDeltaRAM)
	v["core.scans"] = float64(st.Scans)
	v["delta.encode_ops"] = float64(st.EncodeOps)
	v["delta.decode_ops"] = float64(st.DecodeOps)
	return v
}

// ssdReads sums device-level SSD reads; harness.Result carries the
// write side only. This is the one place that looks at the
// classic-or-sharded device handles.
func ssdReads(sys *harness.System) int64 {
	var n int64
	if sys.SSD != nil {
		n += sys.SSD.Stats.Reads
	}
	for _, d := range sys.SSDs {
		n += d.Stats.Reads
	}
	return n
}

// baselineMetric names the per-layer metric a baseline system reports.
func baselineMetric(k harness.Kind) string {
	switch k {
	case harness.FusionIO:
		return "baseline.fusionio_sim_req_per_s"
	case harness.RAID0:
		return "baseline.raid_sim_req_per_s"
	case harness.LRU:
		return "baseline.lru_sim_req_per_s"
	default:
		return "baseline.dedup_sim_req_per_s"
	}
}
