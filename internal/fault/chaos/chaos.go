// Package chaos is the deterministic chaos-soak harness: randomized
// but fully seeded fail-slow and fail-stop fault schedules driven
// against the I-CASH stack at queue depth > 1, with the spec checking
// every read. One seed reproduces one byte-identical run — fault
// windows, request stream, quarantine flips and all — so a failing seed
// is a unit test, not a flake.
//
// A soak passes when the stack survives the schedule with its
// invariants intact and *no silent data loss*: every read either
// returns content the spec (internal/spec) accepts, or the mismatch is
// covered by the controller's own loss accounting (scrub losses,
// degraded losses, dropped log records). Data the stack lost and
// admitted to losing is a handled fault; data it lost quietly is a bug.
package chaos

import (
	"encoding/binary"
	"fmt"
	"io"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/fault"
	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/sim"
	"icash/internal/spec"
	"icash/internal/workload"
)

// Config parameterizes one soak run. The zero value of every field is
// a sensible default; only Seed normally varies between runs.
type Config struct {
	// Seed drives everything: the fault plan, the error-injection
	// PRNGs, and the request stream.
	Seed uint64
	// Ops is the measured operation budget (default 2000).
	Ops int
	// LBASpace is the virtual-disk size in blocks (default 512).
	LBASpace int64
	// QueueDepth is the closed-loop token count (default 8).
	QueueDepth int
	// DisableHedge turns off both hedged reads and detector-driven
	// quarantine (the "no fail-slow handling" ablation arm).
	DisableHedge bool
	// NoFailStop disables the probabilistic media/transient error
	// rates, leaving a pure fail-slow run.
	NoFailStop bool
	// NoFailSlow disables the generated fail-slow plan, leaving a
	// pure fail-stop run.
	NoFailSlow bool
	// Plan overrides the generated fail-slow schedule. Its window
	// times are relative: From/To are offsets from the start of the
	// measured phase, shifted onto the simulated clock by Run.
	Plan *fault.Schedule

	// SilentFaults arms a generated silent-corruption plan for the
	// measured phase: scheduled windows of bit-flip-on-read,
	// misdirected writes, and lost writes on the SSD and HDD. The
	// devices lie (report success, wrong bytes); only the controller's
	// checksums can catch it, and the zero-undetected-corruption bound
	// below holds the controller to that.
	SilentFaults bool
	// ScrubInterval enables the background integrity scrubber with the
	// given batch interval (0 leaves it off). The scrubber arms at the
	// start of the measured phase.
	ScrubInterval sim.Duration

	// Shards partitions the array into N LBA-range shards (0 or 1 =
	// one shard). Every fault — fail-slow windows, probabilistic
	// fail-stop rates, silent corruption — lands on shard 0 only, under
	// its station namespace: the soak then checks both that the faulted
	// shard's loss stays accounted and that the blast radius stops at
	// the shard boundary (the other shards' invariants must hold with
	// zero fault traffic).
	Shards int
}

// writeFrac is the write fraction of the measured stream.
const writeFrac = 0.3

// Result is one soak's complete accounting: the harness result of the
// measured phase and read-back sweep (op counts, latency histograms,
// elapsed time, station scoreboard, controller and injector stats,
// filled by harness.Finish) plus what the spec and the injectors saw.
// Two Results from identical runs compare equal with reflect.DeepEqual
// — the determinism tests rely on that.
type Result struct {
	harness.Result

	Seed uint64
	// OpErrors counts operations the stack gave up on (deadline
	// give-ups, unhealed faults). The op failed loudly; a failed write
	// only widens what the spec accepts for its block.
	OpErrors int64
	// WrongReads counts successful reads whose content the spec
	// rejected; WrongLBAs is the number of distinct blocks affected
	// (the unit the loss counters speak in).
	WrongReads int64
	WrongLBAs  int64
	// AccountedLoss is the controller's own admitted data loss:
	// scrub losses + degraded losses + dropped log records.
	AccountedLoss int64
	// DetectLat is the corruption detection-latency distribution:
	// simulated time from a silent injection to the checksum that
	// caught it. SilentUncaught counts injected damage still
	// outstanding at the end of the run (cold blocks never re-read —
	// damage that never became host-visible).
	DetectLat      metrics.Histogram
	SilentUncaught int64
	// DetectorFlags / DetectorClears total the slow-detector's
	// flag / re-admit transitions across all watched stations.
	DetectorFlags  int64
	DetectorClears int64
	// Quarantined reports whether the run *ended* with the SSD still
	// quarantined (ICASHStats.QuarantineEvents counts the flips).
	Quarantined bool
}

// SlowOps totals the station-level fail-slow inflation across every
// SSD channel and HDD actuator.
func (r *Result) SlowOps() (n int64) {
	for _, st := range r.Stations {
		n += st.SlowOps
	}
	return n
}

// fillBlock writes the deterministic content of (lba, version). The
// LBA space is split into two content regimes so the soak exercises
// both halves of the I-CASH data path:
//
//   - every 4th block belongs to a similarity family: all members of a
//     family share a base pattern and differ only in a small header and
//     sparse per-version edits. Populate writes every member identical
//     (version 1), so the scan installs family references on the SSD,
//     and measured-phase rewrites delta-attach as associates — reads of
//     these blocks are reference-slot reads, the hedgeable path;
//   - the rest get unique incompressible content per (lba, version):
//     their deltas blow the threshold, so rewrites take the SSD
//     write-through path and keep program/erase pressure on the flash
//     channels — the traffic a fail-slow window turns into queue poison.
func fillBlock(buf []byte, lba int64, version uint64) {
	if lba%4 == 0 {
		fam := byte(101 + (lba/32)*17)
		for i := range buf {
			buf[i] = fam
		}
		binary.LittleEndian.PutUint64(buf[0:8], version)
		for i := 128; i < len(buf); i += 128 {
			buf[i] = byte(version)
		}
		return
	}
	binary.LittleEndian.PutUint64(buf[0:8], uint64(lba)^0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(buf[8:16], version)
	pat := byte(uint64(lba)*131 + version*31)
	for i := 16; i < len(buf); i++ {
		buf[i] = pat
		if i%64 == 0 {
			buf[i] = byte(version)
		}
	}
}

// dataSet is what the soak populates: every block at version 1, the
// spec's initial content. Its basis is the family regime's version-1
// content, one block per family, that the controllers' RAM data caches
// and the HDD home stores keep family blocks against, so the faults
// meet content held as patches; other blocks have no basis block.
type dataSet struct {
	blocks int64
	bases  [][]byte
}

func newDataSet(blocks int64) *dataSet {
	d := &dataSet{blocks: blocks}
	for lba := int64(0); lba < blocks; lba += 32 {
		base := make([]byte, blockdev.BlockSize)
		fillBlock(base, lba, 1)
		d.bases = append(d.bases, base)
	}
	return d
}

func (d *dataSet) DataBlocks() int64 { return d.blocks }

func (d *dataSet) Fill(lba int64, buf []byte) { fillBlock(buf, lba, 1) }

func (d *dataSet) Basis(lba int64) []byte {
	if lba < 0 || lba%4 != 0 || lba/32 >= int64(len(d.bases)) {
		return nil
	}
	return d.bases[lba/32]
}

// genPlan builds a randomized-but-seeded fail-slow schedule covering
// roughly the first half of the measured phase: one to three windows,
// each hitting the SSD or an HDD with a 10-100x slowdown, brownout
// jitter, or a short freeze. Offsets are relative (shifted by shift).
func genPlan(seed uint64, shift sim.Time, horizon sim.Duration) []fault.Window {
	rng := sim.NewRand(seed ^ 0xc4a5_0b5e_5eed_f001)
	n := 1 + rng.Intn(3)
	ws := make([]fault.Window, 0, n)
	for i := 0; i < n; i++ {
		from := sim.Duration(rng.Int63n(int64(horizon) / 2))
		dur := horizon/16 + sim.Duration(rng.Int63n(int64(horizon)/4))
		w := fault.Window{
			From:   shift.Add(from),
			To:     shift.Add(from + dur),
			Factor: 10 + 90*rng.Float64(),
		}
		switch rng.Intn(4) {
		case 0:
			w.Station = "ssd"
		case 1:
			w.Station = "hdd0"
		case 2:
			w.Station = "ssd"
			w.Jitter = rng.Float64() // brownout: jittery slowdown
		case 3:
			// Short freeze: the device answers nothing until To.
			w.Station = "ssd"
			w.Factor = 1
			w.Freeze = true
			w.To = shift.Add(from + horizon/32)
		}
		ws = append(ws, w)
	}
	return ws
}

// genSilentPlan builds a randomized-but-seeded silent-corruption
// schedule covering roughly the first half of the measured phase: one
// to three windows, each arming one lie mode (bit-flip-on-read,
// misdirected write, or lost write) on either the SSD or the HDD.
// Rates are modest — a soak should survive, loudly.
func genSilentPlan(seed uint64, shift sim.Time, horizon sim.Duration) (ssdW, hddW []fault.SilentWindow) {
	rng := sim.NewRand(seed ^ 0x51e7_c0de_b17f_11b5)
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		from := sim.Duration(rng.Int63n(int64(horizon) / 2))
		dur := horizon/16 + sim.Duration(rng.Int63n(int64(horizon)/4))
		w := fault.SilentWindow{From: shift.Add(from), To: shift.Add(from + dur)}
		switch rng.Intn(3) {
		case 0:
			w.BitFlip = 0.01 + 0.04*rng.Float64()
		case 1:
			w.Misdirect = 0.005 + 0.015*rng.Float64()
		case 2:
			w.LostWrite = 0.005 + 0.015*rng.Float64()
		}
		if rng.Intn(2) == 0 {
			ssdW = append(ssdW, w)
		} else {
			hddW = append(hddW, w)
		}
	}
	return ssdW, hddW
}

// Run executes one chaos soak and verifies it: populate, fault
// schedule, closed-loop measured phase at QueueDepth, full-sweep
// verify, invariant check, silent-loss check. Any verification
// failure is returned as an error; a nil error means the stack
// survived this seed's schedule with all loss accounted for.
func Run(cfg Config) (*Result, error) {
	res, _, err := run(cfg)
	return res, err
}

// run is Run, also returning the soaked system when it survived.
func run(cfg Config) (*Result, *harness.System, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 2000
	}
	if cfg.LBASpace <= 0 {
		cfg.LBASpace = 512
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}

	// The plan is installed (empty) at build time and filled in after
	// populate: the station shapers and fault devices hold the pointer,
	// so appending windows then is race-free and keeps window offsets
	// relative to the measured phase, not the build instant.
	plan := &fault.Schedule{Seed: cfg.Seed}
	// Silent-corruption plans use the same install-empty-then-populate
	// trick: the fault devices hold the pointers from build time, and
	// windows are appended once the measured-phase anchor is known.
	silentSSD := &fault.SilentPlan{}
	silentHDD := &fault.SilentPlan{}
	fssd := &fault.Config{Seed: cfg.Seed*0x9e37_79b9 + 1, Plan: plan, Silent: silentSSD}
	fhdd := &fault.Config{Seed: cfg.Seed*0x9e37_79b9 + 2, Plan: plan, Silent: silentHDD}
	bc := harness.BuildConfig{
		DataBlocks:     cfg.LBASpace,
		SSDCacheBlocks: cfg.LBASpace / 2,
		// A deliberately small data cache (1/8 of the set): reads must
		// reach the devices or the soak would only ever exercise RAM.
		DataRAMBytes: cfg.LBASpace / 8 * blockdev.BlockSize,
		FaultSSD:     fssd,
		FaultHDD:     fhdd,
		SlowDetector: !cfg.DisableHedge,
		Shards:       cfg.Shards,
	}
	if cfg.DisableHedge {
		bc.Tune = func(c *core.Config) { c.HedgeDeadline = -1 }
	}
	sys, err := harness.Build(harness.ICASH, bc)
	if err != nil {
		return nil, nil, err
	}
	clock := sys.Clock

	// Populate: every block written once at version 1, fault-free (the
	// plan has no windows yet and the probabilistic rates are armed
	// only after Populate's stats reset — a populate-phase fault would
	// leave damaged state whose loss accounting the reset erases,
	// turning an accounted loss into an apparent silent one).
	ds := newDataSet(cfg.LBASpace)
	if err := harness.Populate(sys, ds); err != nil {
		return nil, nil, err
	}
	disk := spec.New(ds.Fill)
	buf := make([]byte, blockdev.BlockSize)

	// Arm the background scrubber for the measured phase (SetScrub
	// re-anchors the schedule at the next request).
	if cfg.ScrubInterval > 0 {
		sys.Sharded.SetScrub(core.ScrubConfig{Interval: cfg.ScrubInterval})
	}

	// Arm the probabilistic fail-stop rates for the measured phase.
	if !cfg.NoFailStop {
		rates := fault.Rates{ReadMedia: 0.001, WriteMedia: 0.001, Transient: 0.003}
		sys.SSDFault.SetRates(rates)
		sys.HDDFault.SetRates(rates)
	}

	// Install the fail-slow schedule, anchored at the measured phase.
	start := clock.Now()
	if !cfg.NoFailSlow {
		horizon := sim.Duration(cfg.Ops) * 400 * sim.Microsecond
		if cfg.Plan != nil {
			plan.Seed = cfg.Plan.Seed
			for _, w := range cfg.Plan.Windows {
				w.From = start.Add(sim.Duration(w.From))
				w.To = start.Add(sim.Duration(w.To))
				plan.Windows = append(plan.Windows, w)
			}
		} else {
			plan.Windows = genPlan(cfg.Seed, start, horizon)
		}
		// Scope every window to the faulted shard's station namespace, so
		// the schedule keeps matching — and only that shard slows ("every
		// station" becomes "every station of shard 0").
		for i := range plan.Windows {
			w := &plan.Windows[i]
			w.Station = harness.ShardStation(0, sys.Sharded.NumShards(), w.Station)
		}
		if err := plan.Validate(); err != nil {
			return nil, nil, fmt.Errorf("chaos: plan: %w", err)
		}
	}

	// Install the silent-corruption schedule, anchored the same way.
	if cfg.SilentFaults {
		horizon := sim.Duration(cfg.Ops) * 400 * sim.Microsecond
		silentSSD.Windows, silentHDD.Windows = genSilentPlan(cfg.Seed, start, horizon)
	}

	// Measured phase: QueueDepth issue tokens on the harness pump, every
	// block a traced op, with every read checked against the spec at
	// execution time (the stack runs in deterministic event order, so
	// "current version" is well-defined even with overlapping requests).
	res := &Result{Seed: cfg.Seed}

	// Detection-latency measurement: every checksum-mismatch detection
	// pops the matching device's outstanding-injection record; the gap
	// between injection and detection is the silent corruption's
	// host-visible exposure window. Only shard 0 carries fault wrappers,
	// so only its detections can match an injection; the other shards
	// record nothing — which is itself the blast-radius claim.
	sys.Sharded.Shard(0).SetCorruptionHook(func(dev string, devLBA int64) {
		var t sim.Time
		var ok bool
		switch dev {
		case "ssd":
			t, ok = sys.SSDFault.TakeCorruption(devLBA)
		case "hdd":
			t, ok = sys.HDDFault.TakeCorruption(devLBA)
		default:
			// A RAM- or host-level detection does not know which device
			// lied; match the outstanding injection on either.
			if t, ok = sys.SSDFault.TakeCorruption(devLBA); !ok {
				t, ok = sys.HDDFault.TakeCorruption(devLBA)
			}
		}
		if ok {
			res.DetectLat.Record(clock.Now().Sub(t))
		}
	})

	rng := sim.NewRand(cfg.Seed ^ 0x5eed_0fca_0c4a_0001)
	version := uint64(1) // global version counter: unique per write

	// A failed op is a loud failure, counted here and judged by the
	// invariant and loss checks below; it does not stop the pump.
	err = sys.Pump(1, cfg.QueueDepth, func(int) (sim.Time, error) {
		if res.Ops >= int64(cfg.Ops) {
			return 0, io.EOF
		}
		res.Ops++
		lba := rng.Int63n(cfg.LBASpace)
		write := rng.Float64() < writeFrac
		arrival := clock.Now()
		if write {
			version++
			fillBlock(buf, lba, version)
		}
		d, wait, err := sys.TracedOp(write, lba, buf, arrival)
		d += wait
		if err != nil {
			res.OpErrors++
		}
		if write {
			disk.Write(lba, buf, err == nil)
			res.Writes++
			res.WriteHist.Record(d)
		} else {
			if err == nil && disk.Check(lba, buf) != nil {
				res.WrongReads++
			}
			res.Reads++
			res.ReadHist.Record(d)
		}
		return arrival.Add(d), nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := sys.Flush(); err != nil {
		// A failed final flush is a loud failure, not silent loss;
		// count it and let the invariant + loss checks judge the state.
		res.OpErrors++
	}

	// Full-sweep verify: every block read back once, serially and
	// untraced: each read issues when the one before completes.
	lba := int64(0)
	err = sys.Pump(1, 1, func(int) (sim.Time, error) {
		if lba >= cfg.LBASpace {
			return 0, io.EOF
		}
		d, err := sys.Dev.ReadBlock(lba, buf)
		if err != nil {
			res.OpErrors++
		} else if disk.Check(lba, buf) != nil {
			res.WrongReads++
		}
		lba++
		return clock.Now().Add(d), nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Collect accounting.
	harness.Finish(sys, &res.Result, workload.Profile{}, start)
	st := res.ICASHStats
	res.Quarantined = sys.Sharded.SSDQuarantined()
	if sys.Detector != nil {
		res.DetectorFlags, res.DetectorClears = sys.Detector.TotalEvents()
	}
	res.WrongLBAs = int64(disk.WrongLBAs())
	res.AccountedLoss = st.ScrubDataLoss + st.DegradedDataLoss + st.DroppedLogRecs
	res.SilentUncaught = int64(sys.SSDFault.SilentOutstanding() + sys.HDDFault.SilentOutstanding())

	// Verdicts: structural invariants, then the silent-loss bound. Every
	// shard is checked — the unfaulted shards' invariants holding is the
	// blast-radius half of the claim.
	if err := sys.Sharded.CheckInvariants(); err != nil {
		return res, nil, fmt.Errorf("chaos: seed %d: controller invariants: %w", cfg.Seed, err)
	}
	for i, sdev := range sys.SSDs {
		if err := sdev.CheckInvariants(); err != nil {
			return res, nil, fmt.Errorf("chaos: seed %d: shard %d ssd invariants: %w", cfg.Seed, i, err)
		}
	}
	if res.WrongLBAs > res.AccountedLoss {
		return res, nil, fmt.Errorf("chaos: seed %d: SILENT DATA LOSS: %d wrong blocks but only %d accounted (scrub %d + degraded %d + dropped %d)",
			cfg.Seed, res.WrongLBAs, res.AccountedLoss,
			st.ScrubDataLoss, st.DegradedDataLoss, st.DroppedLogRecs)
	}
	return res, sys, nil
}

// String summarizes a result in one line for tools. Runs that saw
// corruption detections append an integrity segment; healthy lines are
// unchanged.
func (r *Result) String() string {
	st := r.ICASHStats
	s := fmt.Sprintf("seed=%d ops=%d (r=%d w=%d) errs=%d wrong=%d/%d-lba accounted=%d slow=%d quarantine=%d hedges=%d read[%s]",
		r.Seed, r.Ops, r.Reads, r.Writes, r.OpErrors, r.WrongReads, r.WrongLBAs,
		r.AccountedLoss, r.SlowOps(), st.QuarantineEvents, st.HedgedReads,
		r.ReadHist.String())
	if st.CorruptionsDetected > 0 {
		s += fmt.Sprintf(" corrupt[det=%d rep=%d unrep=%d uncaught=%d lat %s]",
			st.CorruptionsDetected, st.CorruptionsRepaired,
			st.UnrepairableBlocks, r.SilentUncaught, r.DetectLat.String())
	}
	return s
}
