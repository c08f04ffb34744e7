// Package fault is a deterministic, schedule-driven fault-injection
// layer for simulated block devices. A fault.Device wraps any
// blockdev.Device — SSD, HDD, RAID member, memory device — and injects
// reproducible failures drawn from a seeded sim.Rand:
//
//   - latent sector errors / uncorrectable bit errors (ErrMedia): the
//     block stays unreadable until it is rewritten, which models a
//     sector remap or page reprogram healing the location;
//   - transient timeouts (ErrTransient): the operation does not take
//     effect and an immediate retry may succeed;
//   - whole-device loss (ErrDeviceLost): every request fails until
//     Restore is called;
//   - crash points with torn writes: the N-th write applies only a
//     prefix of the new data (the tail keeps the old bytes, exactly
//     what a power cut mid-sector-stream leaves behind), after which
//     the device is lost. Restore models power-on: the media, torn
//     block included, is intact; only the in-flight write was damaged;
//   - silent corruption (SilentRates / SilentPlan): bit flips on
//     successful reads, writes misdirected to the neighboring LBA, and
//     lost writes acked as durable — lie-and-return-success faults that
//     never raise an error and are only caught by content checksums
//     above the device.
//
// Everything is driven by one seed, so two runs with the same seed,
// schedule and request stream observe bit-identical fault sequences —
// the property the deterministic-replay and crash-sweep tests build on.
package fault

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// Rates sets per-operation fault probabilities. Zero values disable
// the corresponding fault; scheduled faults (InjectBad, Lose,
// SetCrashAfterWrites) work regardless of rates.
type Rates struct {
	// ReadMedia is the probability that a read discovers a new latent
	// media error at the target block (the block goes bad until
	// rewritten).
	ReadMedia float64
	// WriteMedia is the probability that a write fails as a program
	// failure, leaving the target block bad until a later write
	// succeeds.
	WriteMedia float64
	// Transient is the probability that any operation times out once
	// without taking effect.
	Transient float64
	// Silent sets the lie-and-return-success rates: bit flips on read,
	// misdirected writes, lost writes. These never surface as errors —
	// only a content checksum above the device catches them.
	Silent SilentRates
}

// Simulated service times of injected faults.
const (
	// timeoutLatency is a transient timeout: a device-level command
	// timeout.
	timeoutLatency = 10 * sim.Millisecond
	// errorLatency is a media error: the drive's internal retries before
	// giving up.
	errorLatency = 5 * sim.Millisecond
	// lostWriteLatency is a lost write: the device acks at normal speed,
	// the data just never reaches the media.
	lostWriteLatency = 100 * sim.Microsecond
)

// Config parameterizes a fault.Device.
type Config struct {
	// Seed drives the injection PRNG; the same seed reproduces the
	// same fault sequence for the same request stream.
	Seed uint64
	// Rates are the probabilistic fault rates.
	Rates Rates
	// Plan, when non-nil, is the scheduled fail-slow plan: service
	// times (successes and error latencies alike) are inflated by
	// Plan.Inflate(Station, Clock.Now(), d). Requires Clock.
	Plan *Schedule
	// Silent, when non-nil, schedules silent-corruption windows whose
	// rates add to Rates.Silent while active. Requires Clock.
	Silent *SilentPlan
	// Clock supplies the simulated time the Plan's windows are keyed on.
	Clock *sim.Clock
	// Station names this device in the Plan's windows ("ssd", "hdd0").
	Station string
}

// Stats counts injected faults and surviving traffic.
type Stats struct {
	Reads           int64 // reads passed through to the inner device
	Writes          int64 // writes passed through to the inner device
	MediaErrors     int64 // ErrMedia returned (injected or latent re-hit)
	TransientErrors int64 // ErrTransient returned
	LostErrors      int64 // ErrDeviceLost returned
	TornWrites      int64 // crash-point writes that applied partially
	HealedBlocks    int64 // bad blocks cleared by a successful rewrite

	// Silent-corruption injection (never surfaces as a device error).
	BitFlips          int64 // successful reads returned with one bit flipped
	MisdirectedWrites int64 // writes that landed on the neighboring LBA
	LostWrites        int64 // writes acked as durable but never applied

	// Fail-slow accounting (scheduled Plan windows).
	SlowOps  int64        // operations whose service time was inflated
	SlowTime sim.Duration // total extra service time injected
}

// Device wraps an inner device with fault injection. It implements
// blockdev.Device; content and fill oracles live on the inner device.
// Not safe for concurrent use, like every device in this simulation.
type Device struct {
	inner blockdev.Device
	cfg   Config
	rng   *sim.Rand

	bad        map[int64]bool
	silentAt   map[int64]sim.Time // outstanding silent damage, keyed by LBA, valued by injection time
	lost       bool
	writeSeen  int64
	crashAfter int64 // 1-indexed write count; -1 disables
	tornBytes  int

	// TraceWrites records the LBA of every write attempt in WriteLog;
	// the crash-point harness uses a traced dry run to find log-flush
	// boundaries.
	TraceWrites bool
	WriteLog    []int64

	// Stats is externally visible accounting.
	Stats Stats
}

// Wrap builds a fault-injecting view of inner.
func Wrap(inner blockdev.Device, cfg Config) *Device {
	return &Device{
		inner:      inner,
		cfg:        cfg,
		rng:        sim.NewRand(cfg.Seed),
		bad:        make(map[int64]bool),
		crashAfter: -1,
	}
}

// shape applies the scheduled fail-slow plan to one operation's service
// time. Error latencies are shaped too: a browning-out device is slow
// to fail just as it is slow to succeed.
func (d *Device) shape(dur sim.Duration) sim.Duration {
	if d.cfg.Plan == nil || d.cfg.Clock == nil {
		return dur
	}
	shaped := d.cfg.Plan.Inflate(d.cfg.Station, d.cfg.Clock.Now(), dur)
	if shaped > dur {
		d.Stats.SlowOps++
		d.Stats.SlowTime += shaped - dur
	}
	return shaped
}

// Blocks returns the inner device capacity.
func (d *Device) Blocks() int64 { return d.inner.Blocks() }

// InjectBad marks lba as a latent media error: reads fail with
// ErrMedia until a write heals the block.
func (d *Device) InjectBad(lba int64) { d.bad[lba] = true }

// BadBlocks reports the current count of unreadable blocks.
func (d *Device) BadBlocks() int { return len(d.bad) }

// Lose fails the whole device: every subsequent request returns
// ErrDeviceLost until Restore.
func (d *Device) Lose() { d.lost = true }

// Lost reports whether the device is currently failed.
func (d *Device) Lost() bool { return d.lost }

// Restore brings a lost device back (power-on after a crash point, or
// reattaching a pulled drive). Latent bad blocks persist.
func (d *Device) Restore() { d.lost = false }

// SetCrashAfterWrites arms a crash point: the n-th subsequent write
// (1-indexed) applies only the first tornBytes bytes of its payload —
// the tail keeps the old media content — and the device is lost.
// tornBytes 0 means the write is not applied at all (power died before
// the sector stream started); tornBytes >= BlockSize means the write
// landed fully and power died immediately after. n <= 0 disarms.
func (d *Device) SetCrashAfterWrites(n int64, tornBytes int) {
	if n <= 0 {
		d.crashAfter = -1
		return
	}
	if tornBytes < 0 {
		tornBytes = 0
	}
	if tornBytes > blockdev.BlockSize {
		tornBytes = blockdev.BlockSize
	}
	d.crashAfter = d.writeSeen + n
	d.tornBytes = tornBytes
}

// WritesSeen returns the number of write attempts observed so far.
func (d *Device) WritesSeen() int64 { return d.writeSeen }

// ReadBlock injects read-path faults, then delegates.
func (d *Device) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, d.inner.Blocks()); err != nil {
		return 0, err
	}
	if err := blockdev.CheckBuffer(buf); err != nil {
		return 0, err
	}
	if d.lost {
		d.Stats.LostErrors++
		return 0, injectErr("read", lba, blockdev.ErrDeviceLost)
	}
	if d.bad[lba] {
		d.Stats.MediaErrors++
		return d.shape(errorLatency), injectErr("read", lba, blockdev.ErrMedia)
	}
	if d.cfg.Rates.Transient > 0 && d.rng.Float64() < d.cfg.Rates.Transient {
		d.Stats.TransientErrors++
		return d.shape(timeoutLatency), injectErr("read", lba, blockdev.ErrTransient)
	}
	if d.cfg.Rates.ReadMedia > 0 && d.rng.Float64() < d.cfg.Rates.ReadMedia {
		d.bad[lba] = true
		d.Stats.MediaErrors++
		return d.shape(errorLatency), injectErr("read", lba, blockdev.ErrMedia)
	}
	d.Stats.Reads++
	dur, err := d.inner.ReadBlock(lba, buf)
	if err == nil {
		if r := d.silentNow().BitFlip; r > 0 && d.rng.Float64() < r {
			// Transfer-path upset: the media is intact, this copy of
			// the data is not. The device still reports success.
			d.flipOneBit(buf)
			d.Stats.BitFlips++
			d.noteSilent(lba)
		}
	}
	return d.shape(dur), err
}

// WriteBlock injects write-path faults (including the armed crash
// point), then delegates. A successful write heals a latent bad block:
// the drive remaps the sector / reprograms the page.
func (d *Device) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, d.inner.Blocks()); err != nil {
		return 0, err
	}
	if err := blockdev.CheckBuffer(buf); err != nil {
		return 0, err
	}
	if d.lost {
		d.Stats.LostErrors++
		return 0, injectErr("write", lba, blockdev.ErrDeviceLost)
	}
	d.writeSeen++
	if d.TraceWrites {
		d.WriteLog = append(d.WriteLog, lba)
	}
	if d.crashAfter >= 0 && d.writeSeen == d.crashAfter {
		return 0, d.tearAndDie(lba, buf)
	}
	if d.cfg.Rates.Transient > 0 && d.rng.Float64() < d.cfg.Rates.Transient {
		d.Stats.TransientErrors++
		return d.shape(timeoutLatency), injectErr("write", lba, blockdev.ErrTransient)
	}
	if d.cfg.Rates.WriteMedia > 0 && d.rng.Float64() < d.cfg.Rates.WriteMedia {
		d.bad[lba] = true
		d.Stats.MediaErrors++
		return d.shape(errorLatency), injectErr("write", lba, blockdev.ErrMedia)
	}
	if sr := d.silentNow(); !sr.zero() {
		if sr.LostWrite > 0 && d.rng.Float64() < sr.LostWrite {
			// Acked as durable, never applied: the old content
			// survives on media. No error, normal-looking latency.
			d.Stats.LostWrites++
			d.Stats.Writes++
			d.noteSilent(lba)
			return d.shape(lostWriteLatency), nil
		}
		if sr.Misdirect > 0 && d.rng.Float64() < sr.Misdirect {
			// The write lands on the neighboring LBA: the target keeps
			// its stale content and the neighbor is clobbered with
			// foreign data — both lie silently.
			target := misdirectTarget(lba, d.inner.Blocks())
			d.Stats.MisdirectedWrites++
			d.noteSilent(lba)
			d.noteSilent(target)
			dur, err := d.inner.WriteBlock(target, buf)
			d.Stats.Writes++
			return d.shape(dur), err
		}
	}
	dur, err := d.inner.WriteBlock(lba, buf)
	if err == nil {
		if d.bad[lba] {
			delete(d.bad, lba)
			d.Stats.HealedBlocks++
		}
		// An honest overwrite replaces whatever silent damage the
		// block held; it is no longer outstanding.
		delete(d.silentAt, lba)
	}
	d.Stats.Writes++
	return d.shape(dur), err
}

// tearAndDie applies the armed torn write and fails the device: the
// first tornBytes bytes of buf land on media, the tail keeps whatever
// the block held before.
func (d *Device) tearAndDie(lba int64, buf []byte) error {
	d.Stats.TornWrites++
	d.lost = true
	d.Stats.LostErrors++
	if d.tornBytes > 0 {
		old := make([]byte, blockdev.BlockSize)
		if _, err := d.inner.ReadBlock(lba, old); err == nil {
			copy(old[:d.tornBytes], buf[:d.tornBytes])
			// Bypass wrapper accounting: this is the physical tail of
			// the dying write, not a new host request. The device is
			// dying mid-write: the torn tail is best-effort and there is
			// no caller to surface its failure to.
			_, _ = d.inner.WriteBlock(lba, old)
		}
	}
	return &Error{Op: "write", LBA: lba,
		Err: fmt.Errorf("power cut at crash point (%d bytes applied): %w",
			d.tornBytes, blockdev.ErrDeviceLost)}
}

var _ blockdev.Device = (*Device)(nil)

// ResetStats zeroes the fault accounting (bad blocks and the crash
// schedule are preserved).
func (d *Device) ResetStats() { d.Stats = Stats{} }

// SetRates replaces the probabilistic fault rates. Harnesses use this
// to keep a warm-up or populate phase genuinely fault-free and arm the
// error injection only for the measured stream — faults before the
// stats reset would leave damaged state whose loss accounting the
// reset then erases.
func (d *Device) SetRates(r Rates) { d.cfg.Rates = r }
