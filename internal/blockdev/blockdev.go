// Package blockdev defines the block-device abstraction every simulated
// storage component implements: SSDs, HDDs, RAID arrays, caches and the
// I-CASH controller itself. Devices address fixed-size blocks (the paper
// fixes the cache block at 4 KB) and report a simulated service latency
// for every request instead of sleeping.
package blockdev

import (
	"errors"
	"fmt"
	"hash/crc32"

	"icash/internal/sim"
)

// BlockSize is the unit of all device I/O in this simulation: 4 KB,
// matching the paper's fixed cache-block size (§4.2).
const BlockSize = 4096

// Errors shared by all device implementations.
var (
	// ErrOutOfRange reports an access beyond the device capacity.
	ErrOutOfRange = errors.New("blockdev: block address out of range")
	// ErrBadBuffer reports a data buffer whose length is not BlockSize.
	ErrBadBuffer = errors.New("blockdev: buffer length must equal BlockSize")

	// ErrMedia reports an uncorrectable media error: a latent sector
	// error on disk or an uncorrectable bit-error/program failure on
	// flash. The affected block stays unreadable until rewritten
	// (sector remap / page reprogram); other blocks are unaffected.
	ErrMedia = errors.New("blockdev: uncorrectable media error")
	// ErrTransient reports a transient device timeout. The operation
	// did not take effect; an immediate retry may succeed.
	ErrTransient = errors.New("blockdev: transient device timeout")
	// ErrDeviceLost reports whole-device failure (pulled drive, dead
	// controller, power cut mid-operation). Every subsequent request
	// fails the same way until the device is restored.
	ErrDeviceLost = errors.New("blockdev: device lost")
	// ErrCorruption reports silent corruption caught by a content
	// checksum: the device returned success with wrong bytes (bit rot,
	// a misdirected write, a lost write). Unlike ErrMedia the device
	// itself admits nothing — re-reading the same copy returns the same
	// wrong data, so recovery must repair from a redundant copy, never
	// retry in place.
	ErrCorruption = errors.New("blockdev: content checksum mismatch (silent corruption)")
)

// ErrorClass partitions device errors by the recovery action they call
// for. Consumers switch on Classify(err) instead of matching sentinel
// errors at every call site.
type ErrorClass int

const (
	// ClassNone is the class of a nil error.
	ClassNone ErrorClass = iota
	// ClassTransient errors are worth retrying with backoff.
	ClassTransient
	// ClassMedia errors are permanent for one block; the content must
	// be repaired from a redundant copy and rewritten.
	ClassMedia
	// ClassDeviceLost errors mean the whole device is gone; the caller
	// must degrade to whatever redundancy remains.
	ClassDeviceLost
	// ClassCorruption errors mean a read succeeded with wrong bytes
	// (checksum mismatch). Retrying the same copy is useless; the block
	// must be repaired from a redundant copy that verifies.
	ClassCorruption
	// ClassOther covers caller bugs (range/buffer validation) and
	// unrecognized errors; retrying cannot help.
	ClassOther
)

// String names the class for diagnostics.
func (c ErrorClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return "transient"
	case ClassMedia:
		return "media"
	case ClassDeviceLost:
		return "device-lost"
	case ClassCorruption:
		return "corruption"
	default:
		return "other"
	}
}

// Classify maps an error returned by a Device operation to its
// recovery class. Wrapped errors (fmt.Errorf with %w) classify the
// same as their underlying sentinel.
func Classify(err error) ErrorClass {
	switch {
	case err == nil:
		return ClassNone
	case errors.Is(err, ErrTransient):
		return ClassTransient
	case errors.Is(err, ErrMedia):
		return ClassMedia
	case errors.Is(err, ErrDeviceLost):
		return ClassDeviceLost
	case errors.Is(err, ErrCorruption):
		return ClassCorruption
	default:
		return ClassOther
	}
}

// castagnoli is the CRC32-C polynomial table shared by every content
// checksum in the stack. Castagnoli is the polynomial storage systems
// standardize on (iSCSI, btrfs, ext4 metadata) and has hardware support
// on both amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ContentCRC computes the CRC32-C content checksum of a block. All
// layers (controller checksum map, reference slots, delta cache,
// scrubber) use this one function so checksums computed at different
// layer crossings are directly comparable.
func ContentCRC(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// Device is a fixed-block storage device on the simulated timeline.
//
// ReadBlock and WriteBlock transfer exactly one block and return the
// simulated service time of the request. Implementations advance any
// internal state (head position, FTL mappings, wear counters) but do not
// advance the shared clock; the caller owns scheduling.
type Device interface {
	// ReadBlock reads block lba into buf (len(buf) == BlockSize).
	ReadBlock(lba int64, buf []byte) (sim.Duration, error)
	// WriteBlock writes buf (len(buf) == BlockSize) to block lba.
	WriteBlock(lba int64, buf []byte) (sim.Duration, error)
	// Blocks returns the device capacity in blocks.
	Blocks() int64
}

// Stats accumulates request counts, bytes and service time for one
// device or one side (read/write) of a storage system. The experiment
// harness renders figures from these counters.
type Stats struct {
	Reads      int64
	Writes     int64
	ReadTime   sim.Duration
	WriteTime  sim.Duration
	ReadBytes  int64
	WriteBytes int64
}

// NoteRead records one read of n bytes taking d.
func (s *Stats) NoteRead(n int, d sim.Duration) {
	s.Reads++
	s.ReadBytes += int64(n)
	s.ReadTime += d
}

// NoteWrite records one write of n bytes taking d.
func (s *Stats) NoteWrite(n int, d sim.Duration) {
	s.Writes++
	s.WriteBytes += int64(n)
	s.WriteTime += d
}

// Ops returns the total number of requests recorded.
func (s *Stats) Ops() int64 { return s.Reads + s.Writes }

// AvgRead returns the mean read service time, or 0 with no reads.
func (s *Stats) AvgRead() sim.Duration {
	if s.Reads == 0 {
		return 0
	}
	return s.ReadTime / sim.Duration(s.Reads)
}

// AvgWrite returns the mean write service time, or 0 with no writes.
func (s *Stats) AvgWrite() sim.Duration {
	if s.Writes == 0 {
		return 0
	}
	return s.WriteTime / sim.Duration(s.Writes)
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadTime += o.ReadTime
	s.WriteTime += o.WriteTime
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
}

// String summarizes the counters for logs and inspection tools.
func (s *Stats) String() string {
	return fmt.Sprintf("reads=%d(avg %v) writes=%d(avg %v)",
		s.Reads, s.AvgRead(), s.Writes, s.AvgWrite())
}

// CheckRange validates an (lba, capacity) pair, returning ErrOutOfRange
// outside [0, blocks).
func CheckRange(lba, blocks int64) error {
	if lba < 0 || lba >= blocks {
		return fmt.Errorf("%w: lba %d, capacity %d blocks", ErrOutOfRange, lba, blocks)
	}
	return nil
}

// CheckBuffer validates a data buffer length.
func CheckBuffer(buf []byte) error {
	if len(buf) != BlockSize {
		return fmt.Errorf("%w: got %d bytes", ErrBadBuffer, len(buf))
	}
	return nil
}

// FillFunc generates the initial content of a never-written block. The
// experiment harness installs the workload's content oracle on every
// device so the benchmark data set "already exists" on the media without
// materializing gigabytes of RAM: unwritten blocks are recomputed on
// demand, deterministically.
type FillFunc func(lba int64, buf []byte)

// Filler is implemented by devices that accept a FillFunc.
type Filler interface {
	SetFill(FillFunc)
}

// Basis is a data set's shared reference content: Basis(lba) returns a
// read-only block that lba's content is expected to stay near (the
// workload's family base), or nil where there is none. A block it
// returns must never change while the Basis is installed. A Basis must
// be comparable (a pointer, or a struct of comparable fields): a store
// that is handed the Basis it already holds does nothing, and one that
// already holds another panics.
type Basis interface {
	Basis(lba int64) []byte
}

// Baser is implemented by devices that accept a Basis.
type Baser interface {
	SetBasis(Basis)
}
