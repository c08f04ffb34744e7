// Package hdd models a mechanical hard disk drive: a seek-time curve over
// cylinder distance, rotational latency, media transfer rate, and head
// position state. The model captures the one asymmetry I-CASH is built
// on: a random 4 KB access costs milliseconds of seek plus rotation,
// while sequential streaming costs only transfer time — so packing many
// deltas into one sequentially-written log block turns many mechanical
// operations into one.
package hdd

import (
	"math"

	"icash/internal/blockdev"
	"icash/internal/sim"
	"icash/internal/sim/event"
)

// Config describes the simulated drive. Defaults approximate the paper's
// 160 GB 7200 RPM Seagate SATA drive.
type Config struct {
	// CapacityBlocks is the capacity in 4 KB blocks.
	CapacityBlocks int64
	// Cylinders is the number of seek positions; LBAs map linearly onto
	// cylinders (outer-to-inner, ignoring zoning).
	Cylinders int
	// RPM is the spindle speed; full rotation = 60s/RPM.
	RPM int
	// TrackToTrackSeek is the minimum (adjacent cylinder) seek time.
	TrackToTrackSeek sim.Duration
	// AverageSeek is the seek time over one third of the stroke; the
	// seek curve is calibrated through this point.
	AverageSeek sim.Duration
	// MaxSeek is the full-stroke seek time.
	MaxSeek sim.Duration
	// TransferRate is the sustained media rate in bytes per second.
	TransferRate int64
	// WriteCacheBlocks sets the on-drive write buffer: up to this many
	// non-sequential writes in a row complete at buffer speed, and the
	// next access that reaches the media empties it. 0 disables it.
	WriteCacheBlocks int
	// BufferLatency is the service time for a buffered (cached) write.
	BufferLatency sim.Duration
}

// DefaultConfig returns a 7200 RPM SATA drive scaled to capacityBlocks.
// The cylinder count is proportional to capacity relative to a 160 GB
// drive with 65536 cylinders: a scaled-down data set occupies a narrow
// band of a physical disk, so seeks within it are short — exactly as
// the paper's 960 MB data set on a 160 GB Seagate behaves.
func DefaultConfig(capacityBlocks int64) Config {
	cylinders := int(capacityBlocks / 640)
	if cylinders < 64 {
		cylinders = 64
	}
	if cylinders > 65536 {
		cylinders = 65536
	}
	return Config{
		CapacityBlocks:   capacityBlocks,
		Cylinders:        cylinders,
		RPM:              7200,
		TrackToTrackSeek: 800 * sim.Microsecond,
		AverageSeek:      8500 * sim.Microsecond,
		MaxSeek:          16 * sim.Millisecond,
		TransferRate:     100 << 20, // 100 MB/s sustained
		WriteCacheBlocks: 4,
		BufferLatency:    300 * sim.Microsecond,
	}
}

// streamSlots is how many concurrent sequential streams the drive's
// read-ahead/NCQ logic tracks (firmware typically follows several).
const streamSlots = 4

// nearGap is how far ahead of a stream head an access may land and
// still count as stream continuation (read-ahead window).
const nearGap = 32

// Device is the simulated disk. It is not safe for concurrent use. Its
// Store holds the content and supplies Blocks, SetFill and the Corrupt
// test hook (a silent bit flip that bypasses timing, head movement and
// statistics).
type Device struct {
	blockdev.Store
	cfg Config

	headCyl  int // current head cylinder
	buffered int // writes currently absorbed by the write buffer

	// streams holds the next expected LBA of recently active sequential
	// streams, most recent first.
	streams [streamSlots]int64

	// tracer/station connect the drive to the concurrency engine: each
	// serviced request notes its mechanical time against the actuator
	// station. Nil when uninstrumented (standalone use).
	tracer  *event.Tracer
	station *event.Server

	// Stats is externally visible accounting.
	Stats Stats
}

// Stats aggregates drive activity.
type Stats struct {
	blockdev.Stats
	// Seeks counts mechanical seeks performed.
	Seeks int64
	// SeekTime is the total time spent seeking.
	SeekTime sim.Duration
	// RotationTime is the total rotational-latency time.
	RotationTime sim.Duration
	// SequentialOps counts requests serviced without a seek.
	SequentialOps int64
	// BufferedWrites counts writes absorbed by the write buffer.
	BufferedWrites int64
}

// New builds a drive from cfg.
func New(cfg Config) *Device {
	if cfg.CapacityBlocks <= 0 {
		panic("hdd: non-positive capacity")
	}
	if cfg.Cylinders <= 0 {
		cfg.Cylinders = 1
	}
	d := &Device{Store: blockdev.NewStore(cfg.CapacityBlocks), cfg: cfg}
	for i := range d.streams {
		d.streams[i] = -1
	}
	return d
}

// cylinderOf maps an LBA to its cylinder.
func (d *Device) cylinderOf(lba int64) int {
	return int(lba * int64(d.cfg.Cylinders) / d.cfg.CapacityBlocks)
}

// seekTime returns the time to move the head dist cylinders. The curve
// is the standard a + b*sqrt(dist) settle-plus-coast model, calibrated
// so that dist=1 costs TrackToTrackSeek and dist=Cylinders/3 costs
// AverageSeek, clamped at MaxSeek.
func (d *Device) seekTime(dist int) sim.Duration {
	if dist <= 0 {
		return 0
	}
	third := float64(d.cfg.Cylinders) / 3
	a := float64(d.cfg.TrackToTrackSeek)
	b := (float64(d.cfg.AverageSeek) - a) / math.Sqrt(third)
	t := sim.Duration(a + b*math.Sqrt(float64(dist)))
	if t > d.cfg.MaxSeek {
		t = d.cfg.MaxSeek
	}
	return t
}

// rotationLatency returns the expected half-rotation wait.
func (d *Device) rotationLatency() sim.Duration {
	full := sim.Duration(int64(60) * int64(sim.Second) / int64(d.cfg.RPM))
	return full / 2
}

// transferTime returns media transfer time for n bytes.
func (d *Device) transferTime(n int) sim.Duration {
	return sim.Duration(int64(n) * int64(sim.Second) / d.cfg.TransferRate)
}

// noteStream matches lba against the tracked sequential streams. It
// returns the continuation kind: 0 = exact next block, 1 = within the
// read-ahead window, -1 = no stream match; and promotes/updates the
// matched stream.
func (d *Device) noteStream(lba int64) int {
	for i, next := range d.streams {
		if next < 0 {
			continue
		}
		gap := lba - next
		if gap >= 0 && gap <= nearGap {
			// Continue this stream; move it to the front.
			copy(d.streams[1:], d.streams[:i])
			d.streams[0] = lba + 1
			if gap == 0 {
				return 0
			}
			return 1
		}
	}
	// New stream replaces the oldest.
	copy(d.streams[1:], d.streams[:streamSlots-1])
	d.streams[0] = lba + 1
	return -1
}

// access computes the mechanical cost of touching lba and updates head
// state. The drive follows several sequential streams at once (as real
// read-ahead and NCQ firmware does): exact continuation costs transfer
// only, continuation within the read-ahead window costs a short settle,
// and everything else pays seek plus rotation.
func (d *Device) access(lba int64, write bool) sim.Duration {
	kind := d.noteStream(lba)
	xfer := d.transferTime(blockdev.BlockSize)
	if kind == 0 {
		d.Stats.SequentialOps++
		d.headCyl = d.cylinderOf(lba)
		d.buffered = 0
		return xfer
	}
	if kind == 1 {
		// Read-ahead window: skip the gap at media speed.
		d.Stats.SequentialOps++
		d.headCyl = d.cylinderOf(lba)
		d.buffered = 0
		return xfer + d.cfg.TrackToTrackSeek
	}
	if write && d.cfg.WriteCacheBlocks > 0 && d.buffered < d.cfg.WriteCacheBlocks {
		// Non-sequential write absorbed by the volatile buffer; the
		// media catch-up happens asynchronously. The head still ends up
		// at the written location.
		d.buffered++
		d.Stats.BufferedWrites++
		d.headCyl = d.cylinderOf(lba)
		return d.cfg.BufferLatency
	}
	d.buffered = 0
	cyl := d.cylinderOf(lba)
	dist := cyl - d.headCyl
	if dist < 0 {
		dist = -dist
	}
	seek := d.seekTime(dist)
	rot := d.rotationLatency()
	d.headCyl = cyl
	if seek > 0 {
		d.Stats.Seeks++
		d.Stats.SeekTime += seek
	}
	d.Stats.RotationTime += rot
	return seek + rot + xfer
}

// ReadBlock services a read at lba.
func (d *Device) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := d.Check(lba, buf); err != nil {
		return 0, err
	}
	d.Read(lba, buf)
	lat := d.access(lba, false)
	d.Stats.NoteRead(blockdev.BlockSize, lat)
	d.tracer.Note(d.station, lat)
	return lat, nil
}

// WriteBlock services a write at lba.
func (d *Device) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := d.Check(lba, buf); err != nil {
		return 0, err
	}
	d.Write(lba, buf)
	lat := d.access(lba, true)
	d.Stats.NoteWrite(blockdev.BlockSize, lat)
	d.tracer.Note(d.station, lat)
	return lat, nil
}

var (
	_ blockdev.Device = (*Device)(nil)
	_ blockdev.Filler = (*Device)(nil)
)

// Instrument connects the drive to the concurrency engine: every
// serviced request notes its mechanical service time against srv via
// tr. A nil tracer detaches the drive.
func (d *Device) Instrument(tr *event.Tracer, srv *event.Server) {
	d.tracer = tr
	d.station = srv
}

// ResetStats zeroes the accumulated statistics.
func (d *Device) ResetStats() { d.Stats = Stats{} }
