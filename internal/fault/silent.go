package fault

import (
	"icash/internal/sim"
)

// SilentRates sets the probabilities of the lie-and-return-success
// fault modes: the device reports success but the data is wrong. None
// of these surface as errors at the device boundary — only a content
// checksum above the device can catch them. Zero values disable the
// corresponding fault and (by the same rate>0 gating as Rates) leave
// the injection RNG stream untouched, so a run with all silent rates
// zero is bit-identical to a run on a build without silent faults.
type SilentRates struct {
	// BitFlip is the probability that a successful read returns the
	// block with exactly one bit flipped. The media itself is intact:
	// re-reading may return clean data (a transfer-path upset).
	BitFlip float64
	// Misdirect is the probability that a write lands on the
	// neighboring LBA instead of the target: the neighbor is clobbered
	// with foreign content and the target silently keeps its old data.
	Misdirect float64
	// LostWrite is the probability that a write is acknowledged as
	// durable but never reaches the media: the old content survives.
	LostWrite float64
}

// add accumulates o into r (used when summing active plan windows).
func (r *SilentRates) add(o SilentRates) {
	r.BitFlip += o.BitFlip
	r.Misdirect += o.Misdirect
	r.LostWrite += o.LostWrite
}

// noteSilent records that lba now holds silently wrong (or silently
// stale) content, stamping the injection time for detection-latency
// measurement. The earliest outstanding injection per LBA wins: latency
// is measured from when the corruption first became observable.
func (d *Device) noteSilent(lba int64) {
	if d.silentAt == nil {
		d.silentAt = make(map[int64]sim.Time)
	}
	if _, ok := d.silentAt[lba]; ok {
		return
	}
	var now sim.Time
	if d.cfg.Clock != nil {
		now = d.cfg.Clock.Now()
	}
	d.silentAt[lba] = now
}

// TakeCorruption pops the recorded injection time for lba, if a silent
// fault at that address is still outstanding. The integrity layer calls
// this when a checksum catches the corruption; the caller's clock minus
// the returned stamp is the detection latency.
func (d *Device) TakeCorruption(lba int64) (sim.Time, bool) {
	t, ok := d.silentAt[lba]
	if ok {
		delete(d.silentAt, lba)
	}
	return t, ok
}

// SilentOutstanding reports how many LBAs currently hold silently
// injected damage that no checksum has caught yet (an honest overwrite
// of the block also clears the entry — the damage is gone).
func (d *Device) SilentOutstanding() int { return len(d.silentAt) }

// flipOneBit corrupts buf in place by flipping one RNG-chosen bit.
func (d *Device) flipOneBit(buf []byte) {
	bit := d.rng.Intn(len(buf) * 8)
	buf[bit/8] ^= 1 << uint(bit%8)
}

// misdirectTarget picks the neighboring LBA a misdirected write lands
// on: the address with the lowest bit flipped (an off-by-one in the
// head positioning / FTL mapping), clamped into the device range.
func misdirectTarget(lba, blocks int64) int64 {
	t := lba ^ 1
	if t >= 0 && t < blocks {
		return t
	}
	if lba > 0 {
		return lba - 1
	}
	return lba + 1
}
