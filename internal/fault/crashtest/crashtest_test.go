package crashtest

import (
	"fmt"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/fault"
	"icash/internal/sim"
	"icash/internal/spec"
)

// Config parameterizes one crash-test workload. The same Config always
// produces the same request stream and the same device write sequence,
// which is what lets a traced dry run enumerate crash points for later
// armed runs.
type Config struct {
	// Core is the controller configuration.
	Core core.Config
	// Seed drives the workload generator.
	Seed uint64
	// Ops is the number of controller operations to issue.
	Ops int
	// LBASpace bounds the addressed virtual LBA range.
	LBASpace int64
	// WriteFrac is the fraction of operations that are writes.
	WriteFrac float64
	// FlushEvery issues an explicit Flush (durability point) every this
	// many operations.
	FlushEvery int
	// Plan, when non-nil, shapes the HDD's service times with scheduled
	// fail-slow windows (station "hdd"), so crash points land while the
	// device is degraded, not only while it is healthy.
	Plan *fault.Schedule
}

// genContent produces a block from one of a few base patterns with a
// small mutation fraction, mirroring the content locality the
// controller exploits.
func genContent(r *sim.Rand, family int) []byte {
	b := make([]byte, blockdev.BlockSize)
	base := sim.NewRand(uint64(family)*977 + 1)
	base.Bytes(b)
	n := len(b) / 20
	for i := 0; i < n; i++ {
		b[r.Intn(len(b))] = byte(r.Uint64())
	}
	return b
}

// rig bundles the devices for one run. The HDD sits behind the fault
// wrapper; crash points cut power mid log flush, which is an HDD write.
type rig struct {
	ssd  *blockdev.MemDevice
	hddF *fault.Device
	c    *core.Controller
}

func buildRig(cfg Config) (*rig, error) {
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	ssd := blockdev.NewMemDevice(cfg.Core.SSDBlocks, 10*sim.Microsecond)
	hdd := blockdev.NewMemDevice(cfg.Core.VirtualBlocks+cfg.Core.LogBlocks, 100*sim.Microsecond)
	hddF := fault.Wrap(hdd, fault.Config{Seed: cfg.Seed, Plan: cfg.Plan, Clock: clock, Station: "hdd"})
	c, err := core.New(cfg.Core, ssd, hddF, clock, cpu)
	if err != nil {
		return nil, err
	}
	return &rig{ssd: ssd, hddF: hddF, c: c}, nil
}

// array is what the workload drives: one controller, or several
// composed under core.NewSharded.
type array interface {
	ReadBlock(lba int64, buf []byte) (sim.Duration, error)
	WriteBlock(lba int64, buf []byte) (sim.Duration, error)
	Flush() error
}

// runWorkload issues the deterministic request stream against a,
// returning the operation index of the power cut (-1 if none fired) and
// the spec that shadowed the run. Any error other than the expected
// device loss is returned. afterOp, when non-nil, runs after every
// operation that succeeded; its error ends the run.
func runWorkload(cfg Config, a array, afterOp func(op int) error) (int, *spec.Disk, error) {
	rnd := sim.NewRand(cfg.Seed)
	d := spec.New(nil)
	buf := make([]byte, blockdev.BlockSize)
	for op := 0; op < cfg.Ops; op++ {
		lba := int64(rnd.Intn(int(cfg.LBASpace)))
		var err error
		if rnd.Float64() < cfg.WriteFrac {
			content := genContent(rnd, int(lba%7))
			_, err = a.WriteBlock(lba, content)
			// A write the power cut interrupted is unacknowledged but may
			// still surface after recovery if its log record landed.
			d.Write(lba, content, err == nil)
		} else {
			_, err = a.ReadBlock(lba, buf)
			if err == nil {
				err = d.Check(lba, buf)
			}
		}
		if err == nil && cfg.FlushEvery > 0 && (op+1)%cfg.FlushEvery == 0 {
			if err = a.Flush(); err == nil {
				d.Flush()
			}
		}
		if blockdev.Classify(err) == blockdev.ClassDeviceLost {
			return op, d, nil // the armed power cut
		}
		if err != nil {
			return -1, nil, fmt.Errorf("op %d: %w", op, err)
		}
		if afterOp != nil {
			if err := afterOp(op); err != nil {
				return -1, nil, fmt.Errorf("op %d: %w", op, err)
			}
		}
	}
	return -1, d, nil
}

// logWritePoints runs the workload fault-free with write tracing and
// returns the 1-indexed HDD write counts whose target falls inside the
// delta-log region. Arming a crash at one of these indices in a fresh
// run cuts power exactly at that log write.
func logWritePoints(cfg Config) ([]int64, error) {
	r, err := buildRig(cfg)
	if err != nil {
		return nil, err
	}
	r.hddF.TraceWrites = true
	if _, _, err := runWorkload(cfg, r.c, nil); err != nil {
		return nil, err
	}
	return logWrites(r.hddF, cfg.Core.VirtualBlocks), nil
}

// logWrites returns the 1-indexed writes of a traced HDD that landed in
// its log region, which starts at home blocks.
func logWrites(hdd *fault.Device, home int64) []int64 {
	var points []int64
	for i, lba := range hdd.WriteLog {
		if lba >= home {
			points = append(points, int64(i+1))
		}
	}
	return points
}

// runCrash replays the workload on fresh devices, cuts power at the
// crashWrite-th HDD write applying only tornBytes of it, then powers
// the array back on (PowerOn). It returns the recovered controller's
// accounting, so a test can assert which recovery paths fired.
func runCrash(cfg Config, crashWrite int64, tornBytes int) (core.Stats, error) {
	r, err := buildRig(cfg)
	if err != nil {
		return core.Stats{}, err
	}
	r.hddF.SetCrashAfterWrites(crashWrite, tornBytes)
	crashOp, d, err := runWorkload(cfg, r.c, nil)
	if err != nil {
		return core.Stats{}, err
	}
	if crashOp < 0 {
		return core.Stats{}, fmt.Errorf("crash point %d never fired (workload made %d writes)",
			crashWrite, r.hddF.WritesSeen())
	}
	r.hddF.Restore()
	sc, err := PowerOn(cfg.Core, []Media{{SSD: r.ssd, HDD: r.hddF}}, cfg.LBASpace, d)
	if err != nil {
		return core.Stats{}, err
	}
	return sc.Shard(0).Stats, nil
}

func sweepConfig() Config {
	cc := core.NewDefaultConfig(4096, 256, 64<<10, 256<<10)
	cc.ScanPeriod = 100
	cc.ScanWindow = 400
	cc.LogBlocks = 64
	// Durability points are the harness's explicit Flush calls only, so
	// the spec knows exactly when the floor rises.
	cc.FlushPeriodOps = 0
	cc.FlushDirtyBytes = 1 << 30
	return Config{
		Core:       cc,
		Seed:       42,
		Ops:        4000,
		LBASpace:   1024,
		WriteFrac:  0.5,
		FlushEvery: 300,
	}
}

// TestCrashSweep cuts power at a spread of log-write boundaries with a
// range of torn-write sizes — from "power died before the sector
// stream" (0) through mid-block tears to "block fully landed" (4096) —
// and requires every recovery to pass invariants plus a full read-back
// against the spec.
func TestCrashSweep(t *testing.T) {
	cfg := sweepConfig()
	points, err := logWritePoints(cfg)
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if len(points) < 20 {
		t.Fatalf("workload produced only %d log writes; need >= 20 crash points", len(points))
	}

	tornVariants := []int{0, 1, 100, 2048, 4096}
	// Spread 25 crash points evenly across the run so early, mid and
	// late log activity (including cleaning) all get cut.
	const nPoints = 25
	var tornSeen, cleanSeen int
	for i := 0; i < nPoints; i++ {
		p := points[i*len(points)/nPoints]
		torn := tornVariants[i%len(tornVariants)]
		st, err := runCrash(cfg, p, torn)
		if err != nil {
			t.Fatalf("crash at write %d torn %d: %v", p, torn, err)
		}
		if st.TornLogBlocks > 0 {
			tornSeen++
		} else {
			cleanSeen++
		}
	}
	// Mid-block tears must actually exercise the CRC-reject path at
	// least some of the time, and full-block landings must recover
	// without spurious rejects.
	if tornSeen == 0 {
		t.Error("no sweep run observed a torn log block; CRC reject path untested")
	}
	if cleanSeen == 0 {
		t.Error("every sweep run claimed a torn block; tornBytes=4096 should land cleanly")
	}
}

// TestSweepWorkloadInvariantsEveryOp replays the sweep's request stream
// without a crash and checks the controller's invariants after every
// operation, not only after recovery. This stream is where a slot was
// first seen listed twice for similarity search: a scan attached a
// candidate to a slot whose last dependent the attach's own delta store
// had just evicted, and the slot, still listed, was listed again. The
// second entry is gone again a few hundred operations later, so only a
// per-operation check sees it.
func TestSweepWorkloadInvariantsEveryOp(t *testing.T) {
	cfg := sweepConfig()
	r, err := buildRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runWorkload(cfg, r.c, func(int) error { return r.c.CheckInvariants() }); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSweepFailSlow repeats a crash sweep while the HDD runs under
// an always-active fail-slow window: commit bursts take 8x their
// nominal service time (with deterministic jitter), so power cuts land
// on a degraded device whose writes straddle durability decisions for
// much longer. Atomicity must not depend on the device being fast —
// every recovery still passes invariants, the journal audit, and the
// read-back against the spec.
func TestCrashSweepFailSlow(t *testing.T) {
	cfg := sweepConfig()
	cfg.Plan = &fault.Schedule{Windows: []fault.Window{
		{Station: "hdd", From: 0, To: sim.Time(1 << 62), Factor: 8, Jitter: 2},
	}}
	if err := cfg.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	points, err := logWritePoints(cfg)
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if len(points) < 10 {
		t.Fatalf("workload produced only %d log writes; need >= 10 crash points", len(points))
	}
	tornVariants := []int{0, 100, 2048, 4096}
	const nPoints = 10
	for i := 0; i < nPoints; i++ {
		p := points[i*len(points)/nPoints]
		torn := tornVariants[i%len(tornVariants)]
		if _, err := runCrash(cfg, p, torn); err != nil {
			t.Fatalf("fail-slow crash at write %d torn %d: %v", p, torn, err)
		}
	}
}

// TestCrashAtEveryEarlyLogWrite densely covers the first log writes,
// where the log head wraps state is simplest and off-by-one bugs in
// replay show up.
func TestCrashAtEveryEarlyLogWrite(t *testing.T) {
	cfg := sweepConfig()
	cfg.Ops = 1500
	points, err := logWritePoints(cfg)
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	n := len(points)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		for _, torn := range []int{0, 2048} {
			if _, err := runCrash(cfg, points[i], torn); err != nil {
				t.Fatalf("crash at log write %d (write #%d) torn %d: %v", i, points[i], torn, err)
			}
		}
	}
}

// TestNoCrashBaseline checks the harness itself: with no crash armed
// the workload completes and the dry-run trace is reproducible.
func TestNoCrashBaseline(t *testing.T) {
	cfg := sweepConfig()
	p1, err := logWritePoints(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := logWritePoints(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatalf("dry runs disagree: %d vs %d log writes", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("dry runs disagree at %d: %d vs %d", i, p1[i], p2[i])
		}
	}
}

// shardedConfig is the sweep workload over n shards of 512 blocks. It
// addresses the whole composed space, so every shard journals, and it
// flushes often, so many log writes fall inside the all-shard barrier.
func shardedConfig(n int) Config {
	cfg := sweepConfig()
	cfg.Core.VirtualBlocks = 512
	cfg.LBASpace = int64(n) * cfg.Core.VirtualBlocks
	cfg.Ops = 1200
	cfg.FlushEvery = 100
	return cfg
}

// shardedRig composes n buildRig controllers under core.NewSharded.
func shardedRig(t *testing.T, cfg Config, n int) ([]*rig, *core.ShardedController) {
	t.Helper()
	rigs := make([]*rig, n)
	ctrls := make([]*core.Controller, n)
	for i := range rigs {
		r, err := buildRig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rigs[i], ctrls[i] = r, r.c
	}
	sc, err := core.NewSharded(ctrls)
	if err != nil {
		t.Fatal(err)
	}
	return rigs, sc
}

// barrierSpy records, for every all-shard Flush, the span (from, to] of
// one shard's HDD writes the barrier made.
type barrierSpy struct {
	*core.ShardedController
	hdd   *fault.Device
	spans [][2]int64
}

func (b *barrierSpy) Flush() error {
	from := b.hdd.WritesSeen()
	err := b.ShardedController.Flush()
	b.spans = append(b.spans, [2]int64{from, b.hdd.WritesSeen()})
	return err
}

// barrierPoints traces a dry run and returns shard k's log writes and,
// for every all-shard Flush that reached shard k's log, the first log
// write it made there: a cut at that write with nothing applied lands
// between shard k-1 and shard k of the ascending barrier.
func barrierPoints(t *testing.T, cfg Config, n, k int) (all, starts []int64) {
	t.Helper()
	rigs, sc := shardedRig(t, cfg, n)
	rigs[k].hddF.TraceWrites = true
	spy := &barrierSpy{ShardedController: sc, hdd: rigs[k].hddF}
	if _, _, err := runWorkload(cfg, spy, nil); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	all = logWrites(rigs[k].hddF, cfg.Core.VirtualBlocks)
	for _, s := range spy.spans {
		for _, p := range all {
			if p > s[0] && p <= s[1] {
				starts = append(starts, p)
				break
			}
		}
	}
	return all, starts
}

// TestCrashSharded cuts power on one shard's HDD of a 2- and a 4-shard
// array, at log writes the workload's ascending all-shard Flush barrier
// makes: at the first log write shard k's flush makes (shards below k
// flushed, k and above not) and at tears spread across the run. Every
// shard is then recovered from its own media and the whole LBA space is
// read back against the spec.
func TestCrashSharded(t *testing.T) {
	for _, n := range []int{2, 4} {
		cfg := shardedConfig(n)
		for k := 0; k < n; k++ {
			all, starts := barrierPoints(t, cfg, n, k)
			if len(starts) < 4 {
				t.Fatalf("%d shards: only %d flush barriers reached shard %d's log", n, len(starts), k)
			}
			type cut struct {
				write int64
				tear  int
			}
			cuts := []cut{
				{starts[1], 0}, {starts[len(starts)-2], 0},
				{all[len(all)/3], 100}, {all[2*len(all)/3], 2048}, {all[len(all)-1], 4096},
			}
			for _, c := range cuts {
				name := fmt.Sprintf("%d shards, cut on shard %d at write %d torn %d", n, k, c.write, c.tear)
				rigs, sc := shardedRig(t, cfg, n)
				rigs[k].hddF.SetCrashAfterWrites(c.write, c.tear)
				op, d, err := runWorkload(cfg, sc, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if op < 0 {
					t.Fatalf("%s: never fired", name)
				}
				rigs[k].hddF.Restore()
				media := make([]Media, n)
				for j, r := range rigs {
					media[j] = Media{SSD: r.ssd, HDD: r.hddF}
				}
				if _, err := PowerOn(cfg.Core, media, cfg.LBASpace, d); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// fuzzConfig is FuzzSpec's rig: small enough that a few hundred steps
// fill the delta buffer, wrap the log and run the cleaner.
func fuzzConfig() Config {
	cc := core.NewDefaultConfig(256, 64, 16<<10, 32<<10)
	cc.ScanPeriod = 20
	cc.ScanWindow = 50
	cc.LogBlocks = 16
	cc.FlushPeriodOps = 0
	cc.FlushDirtyBytes = 1 << 30
	return Config{Core: cc, Seed: 7, LBASpace: 64}
}

// specSteps decodes steps, two bytes a step, into a state machine over
// a small rig: read, write, flush, arm a power cut some HDD writes
// ahead, or crash now. Any step the cut interrupts, and every crash,
// ends in PowerOn: recovery, invariants, journal audit, and a read-back
// against the spec. Every read in between is checked against it too.
func specSteps(steps []byte) error {
	cfg := fuzzConfig()
	r, err := buildRig(cfg)
	if err != nil {
		return err
	}
	d := spec.New(nil)
	rnd := sim.NewRand(1)
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i+1 < len(steps) && i < 1024; i += 2 {
		op, arg := steps[i]%5, steps[i+1]
		lba := int64(arg) % cfg.LBASpace
		var err error
		switch op {
		case 0:
			if _, err = r.c.ReadBlock(lba, buf); err == nil {
				err = d.Check(lba, buf)
			}
		case 1:
			content := genContent(rnd, int(arg%3))
			_, err = r.c.WriteBlock(lba, content)
			d.Write(lba, content, err == nil)
		case 2:
			if err = r.c.Flush(); err == nil {
				d.Flush()
			}
		case 3:
			r.hddF.SetCrashAfterWrites(1+int64(arg%16), []int{0, 100, 2048, 4096}[arg/16%4])
			continue
		}
		if op != 4 && blockdev.Classify(err) != blockdev.ClassDeviceLost {
			if err != nil {
				return fmt.Errorf("step %d: %w", i/2, err)
			}
			continue
		}
		r.hddF.SetCrashAfterWrites(0, 0)
		r.hddF.Restore()
		sc, err := PowerOn(cfg.Core, []Media{{SSD: r.ssd, HDD: r.hddF}}, cfg.LBASpace, d)
		if err != nil {
			return fmt.Errorf("step %d: power-on: %w", i/2, err)
		}
		r.c = sc.Shard(0)
	}
	return nil
}

// FuzzSpec runs specSteps on fuzzed step sequences, seeded from
// testdata/fuzz/FuzzSpec.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, steps []byte) {
		if err := specSteps(steps); err != nil {
			t.Fatal(err)
		}
	})
}
