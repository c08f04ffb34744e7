// Package crashtest is a crash-point recovery harness for the I-CASH
// controller. It drives a deterministic workload against a controller
// whose HDD sits behind a fault.Device, cuts power at a chosen write
// (optionally tearing that write mid-block), recovers from the
// surviving media, and checks the recovered array against a durability
// oracle.
//
// The oracle keeps, per LBA, the full history of values ever written
// plus a "durable floor": the history index that was current when the
// last Flush() returned successfully. A recovered value must be a
// member of the history at or after the floor — anything older means a
// durably acknowledged write was lost; anything outside the history
// means corruption leaked through recovery.
package crashtest

import (
	"bytes"
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/fault"
	"icash/internal/sim"
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

// Result reports one armed run.
type Result struct {
	// Crashed reports whether the armed crash point fired before the
	// workload completed.
	Crashed bool
	// CrashOp is the operation index at which the power cut surfaced.
	CrashOp int
	// Stats is the recovered controller's accounting (TornLogBlocks,
	// DroppedLogRecs, ... let tests assert which paths fired).
	Stats core.Stats
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

// Oracle is the per-LBA durability oracle: the full history of values
// ever written plus the durable floor raised at each acknowledged
// flush. It is exported so run-drivers outside this package — the
// block-service crash sweep — can hold the served path to the same
// no-acked-write-lost standard.
type Oracle struct {
	history map[int64][][]byte
	floor   map[int64]int
}

// NewOracle returns an empty oracle.
func NewOracle() *Oracle {
	return &Oracle{history: make(map[int64][][]byte), floor: make(map[int64]int)}
}

// NoteWrite appends content to lba's history. Call it for every write
// the device may have absorbed: acknowledged writes, and the one write
// a power cut interrupted (which may or may not have landed).

func (o *Oracle) NoteWrite(lba int64, content []byte) {
	if len(o.history[lba]) == 0 {
		// History version 0 is the pre-write state (unwritten blocks
		// read as zeros); a crash before the first flush legitimately
		// recovers to it.
		o.history[lba] = append(o.history[lba], make([]byte, blockdev.BlockSize))
	}
	c := make([]byte, len(content))
	copy(c, content)
	o.history[lba] = append(o.history[lba], c)
}

// NoteFlush marks every LBA's current value durable.
func (o *Oracle) NoteFlush() {
	for lba, h := range o.history {
		o.floor[lba] = len(h) - 1
	}
}

// Check validates a recovered value for lba.
func (o *Oracle) Check(lba int64, got []byte) error {
	h := o.history[lba]
	if len(h) == 0 {
		for _, b := range got {
			if b != 0 {
				return fmt.Errorf("lba %d: never written but recovered non-zero content", lba)
			}
		}
		return nil
	}
	for i := len(h) - 1; i >= 0; i-- {
		if bytes.Equal(h[i], got) {
			if i < o.floor[lba] {
				return fmt.Errorf("lba %d: recovered history version %d, durable floor is %d (acknowledged write lost)",
					lba, i, o.floor[lba])
			}
			return nil
		}
	}
	return fmt.Errorf("lba %d: recovered content matches no written version (corruption)", lba)
}

// rig bundles the devices for one run. The HDD sits behind the fault
// wrapper; crash points cut power mid log flush, which is an HDD write.
type rig struct {
	ssd   *blockdev.MemDevice
	hddF  *fault.Device
	clock *sim.Clock
	c     *core.Controller
}

func buildRig(cfg Config) (*rig, error) {
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant(clock)
	ssd := blockdev.NewMemDevice(cfg.Core.SSDBlocks, 10*sim.Microsecond)
	hdd := blockdev.NewMemDevice(cfg.Core.VirtualBlocks+cfg.Core.LogBlocks, 100*sim.Microsecond)
	hddF := fault.Wrap(hdd, fault.Config{Seed: cfg.Seed, Plan: cfg.Plan, Clock: clock, Station: "hdd"})
	c, err := core.New(cfg.Core, ssd, hddF, clock, cpu)
	if err != nil {
		return nil, err
	}
	return &rig{ssd: ssd, hddF: hddF, clock: clock, c: c}, nil
}

// runWorkload issues the deterministic request stream, returning the
// operation index of the power cut (-1 if none fired) and the oracle.
// Any error other than the expected device loss is returned. afterOp,
// when non-nil, runs after every operation that succeeded; its error
// ends the run.
func runWorkload(cfg Config, r *rig, afterOp func(op int) error) (int, *Oracle, error) {
	rnd := sim.NewRand(cfg.Seed)
	o := NewOracle()
	buf := make([]byte, blockdev.BlockSize)
	for op := 0; op < cfg.Ops; op++ {
		lba := int64(rnd.Intn(int(cfg.LBASpace)))
		var err error
		var content []byte
		if rnd.Float64() < cfg.WriteFrac {
			content = genContent(rnd, int(lba%7))
			_, err = r.c.WriteBlock(lba, content)
			if err == nil {
				o.NoteWrite(lba, content)
				content = nil // recorded; don't re-note on a later flush error
			}
		} else {
			_, err = r.c.ReadBlock(lba, buf)
		}
		if err == nil && cfg.FlushEvery > 0 && (op+1)%cfg.FlushEvery == 0 {
			err = r.c.Flush()
			if err == nil {
				o.NoteFlush()
			}
		}
		if err != nil {
			if blockdev.Classify(err) == blockdev.ClassDeviceLost {
				// The armed power cut. A write interrupted by the cut is
				// unacknowledged but may still surface after recovery if
				// its log record landed before the torn block, so it
				// joins the history without raising the durable floor.
				if content != nil {
					o.NoteWrite(lba, content)
				}
				return op, o, nil
			}
			return -1, nil, fmt.Errorf("op %d: %w", op, err)
		}
		if afterOp != nil {
			if err := afterOp(op); err != nil {
				return -1, nil, fmt.Errorf("op %d: %w", op, err)
			}
		}
	}
	return -1, o, nil
}

// LogWritePoints runs the workload fault-free with write tracing and
// returns the 1-indexed HDD write counts whose target falls inside the
// delta-log region. Arming a crash at one of these indices in a fresh
// run cuts power exactly at that log write.
func LogWritePoints(cfg Config) ([]int64, error) {
	r, err := buildRig(cfg)
	if err != nil {
		return nil, err
	}
	r.hddF.TraceWrites = true
	if _, _, err := runWorkload(cfg, r, nil); err != nil {
		return nil, err
	}
	var points []int64
	for i, lba := range r.hddF.WriteLog {
		if lba >= cfg.Core.VirtualBlocks {
			points = append(points, int64(i+1))
		}
	}
	return points, nil
}

// RunCrash replays the workload on fresh devices, cuts power at the
// crashWrite-th HDD write applying only tornBytes of it, then models
// power-on: restores the device, runs core.Recover against the
// surviving media, validates invariants, and reads back the whole LBA
// space against the durability oracle.
func RunCrash(cfg Config, crashWrite int64, tornBytes int) (Result, error) {
	r, err := buildRig(cfg)
	if err != nil {
		return Result{}, err
	}
	r.hddF.SetCrashAfterWrites(crashWrite, tornBytes)
	crashOp, o, err := runWorkload(cfg, r, nil)
	if err != nil {
		return Result{}, err
	}
	res := Result{Crashed: crashOp >= 0, CrashOp: crashOp}
	if !res.Crashed {
		return res, fmt.Errorf("crash point %d never fired (workload made %d writes)",
			crashWrite, r.hddF.WritesSeen())
	}

	// Power-on: RAM is gone, media survives (torn block included).
	r.hddF.Restore()
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant(clock)
	rc, err := core.Recover(cfg.Core, r.ssd, r.hddF, clock, cpu)
	if err != nil {
		return res, fmt.Errorf("recover: %w", err)
	}
	if err := rc.CheckInvariants(); err != nil {
		return res, fmt.Errorf("post-recovery invariants: %w", err)
	}
	// Structural audit of the media itself: no reader-visible record may
	// ride an incomplete transaction, and the incomplete transactions
	// left on disk must be exactly the ones recovery reported discarding
	// — a discrepancy either way means a batch was partially applied.
	incomplete, err := rc.AuditJournal()
	if err != nil {
		return res, fmt.Errorf("post-recovery journal audit: %w", err)
	}
	if int64(incomplete) != rc.Stats.TxnsDiscardedOnReplay {
		return res, fmt.Errorf("journal audit: %d incomplete transactions on disk, recovery discarded %d",
			incomplete, rc.Stats.TxnsDiscardedOnReplay)
	}

	// Full read-back against the oracle.
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < cfg.LBASpace; lba++ {
		if _, err := rc.ReadBlock(lba, buf); err != nil {
			return res, fmt.Errorf("read-back lba %d: %w", lba, err)
		}
		if err := o.Check(lba, buf); err != nil {
			return res, err
		}
	}
	res.Stats = rc.Stats
	return res, nil
}
