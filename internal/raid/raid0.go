// Package raid implements RAID0 block-level striping over any set of
// simulated devices. The paper's second baseline is a 4-disk Linux MD
// RAID0 array (§4.4); striping spreads load but each random request
// still pays one disk's mechanical latency.
package raid

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// Array0 is a RAID0 stripe set. It is not safe for concurrent use.
//
// RAID0 has no redundancy: a lost member takes its stripe chunks with
// it. The array tracks which members have failed (any error that
// classifies as device loss) and fails requests routed to them fast,
// without re-touching the dead device, so upper layers observe a
// consistent degraded view instead of timing-dependent behaviour.
type Array0 struct {
	members     []blockdev.Device
	chunkBlocks int64
	blocks      int64
	failed      []bool

	// Stats aggregates array-level request accounting.
	Stats Stats
}

// Stats extends the common device accounting with fault counters.
type Stats struct {
	blockdev.Stats
	// Faults counts member I/O errors observed by the array.
	Faults int64
	// MemberLosses counts members declared failed.
	MemberLosses int64
}

// NewArray0 builds a RAID0 array over members with the given chunk size
// in blocks (Linux MD default 512 KB = 128 blocks of 4 KB).
func NewArray0(members []blockdev.Device, chunkBlocks int64) (*Array0, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("raid: empty member set")
	}
	if chunkBlocks <= 0 {
		return nil, fmt.Errorf("raid: chunk size must be positive, got %d", chunkBlocks)
	}
	min := members[0].Blocks()
	for _, m := range members[1:] {
		if b := m.Blocks(); b < min {
			min = b
		}
	}
	// Only whole chunks participate in the stripe; a member's trailing
	// partial chunk is unusable, exactly as in Linux MD.
	usableChunks := min / chunkBlocks
	return &Array0{
		members:     members,
		chunkBlocks: chunkBlocks,
		blocks:      usableChunks * chunkBlocks * int64(len(members)),
		failed:      make([]bool, len(members)),
	}, nil
}

// noteError records a member error, marking the member failed when the
// error classifies as device loss.
func (a *Array0) noteError(m int, err error) {
	a.Stats.Faults++
	if blockdev.Classify(err) == blockdev.ClassDeviceLost && !a.failed[m] {
		a.failed[m] = true
		a.Stats.MemberLosses++
	}
}

// Blocks returns the array capacity in blocks.
func (a *Array0) Blocks() int64 { return a.blocks }

// locate maps an array LBA to (member, member LBA) using chunked
// round-robin striping.
func (a *Array0) locate(lba int64) (int, int64) {
	chunk := lba / a.chunkBlocks
	within := lba % a.chunkBlocks
	member := int(chunk % int64(len(a.members)))
	memberChunk := chunk / int64(len(a.members))
	return member, memberChunk*a.chunkBlocks + within
}

// ReadBlock routes a read to the owning stripe member.
func (a *Array0) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, a.blocks); err != nil {
		return 0, err
	}
	m, mlba := a.locate(lba)
	if a.failed[m] {
		a.Stats.Faults++
		return 0, fmt.Errorf("raid: member %d failed: %w", m, blockdev.ErrDeviceLost)
	}
	d, err := a.members[m].ReadBlock(mlba, buf)
	if err != nil {
		a.noteError(m, err)
		return 0, fmt.Errorf("raid: member %d: %w", m, err)
	}
	a.Stats.NoteRead(blockdev.BlockSize, d)
	return d, nil
}

// WriteBlock routes a write to the owning stripe member.
func (a *Array0) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := blockdev.CheckRange(lba, a.blocks); err != nil {
		return 0, err
	}
	m, mlba := a.locate(lba)
	if a.failed[m] {
		a.Stats.Faults++
		return 0, fmt.Errorf("raid: member %d failed: %w", m, blockdev.ErrDeviceLost)
	}
	d, err := a.members[m].WriteBlock(mlba, buf)
	if err != nil {
		a.noteError(m, err)
		return 0, fmt.Errorf("raid: member %d: %w", m, err)
	}
	a.Stats.NoteWrite(blockdev.BlockSize, d)
	return d, nil
}

var _ blockdev.Device = (*Array0)(nil)

// SetFill installs the initial-content oracle, translating each
// member's local addresses back to array addresses.
func (a *Array0) SetFill(f blockdev.FillFunc) {
	for m, dev := range a.members {
		fl, ok := dev.(blockdev.Filler)
		if !ok {
			continue
		}
		member := m
		fl.SetFill(func(mlba int64, buf []byte) { f(a.arrayLBA(member, mlba), buf) })
	}
}

var _ blockdev.Filler = (*Array0)(nil)

// arrayLBA is the array address of member block mlba: locate's inverse.
func (a *Array0) arrayLBA(member int, mlba int64) int64 {
	chunk := mlba / a.chunkBlocks
	within := mlba % a.chunkBlocks
	arrayChunk := chunk*int64(len(a.members)) + int64(member)
	return arrayChunk*a.chunkBlocks + within
}

// SetBasis installs the data set's basis on every member, translating
// each member's local addresses back to array addresses as SetFill does.
func (a *Array0) SetBasis(b blockdev.Basis) {
	for m, dev := range a.members {
		bs, ok := dev.(blockdev.Baser)
		if !ok {
			continue
		}
		if b == nil {
			bs.SetBasis(nil)
		} else {
			bs.SetBasis(memberBasis{a, m, b})
		}
	}
}

var _ blockdev.Baser = (*Array0)(nil)

// memberBasis is an array's basis as one member sees it.
type memberBasis struct {
	a      *Array0
	member int
	b      blockdev.Basis
}

func (m memberBasis) Basis(mlba int64) []byte { return m.b.Basis(m.a.arrayLBA(m.member, mlba)) }

// ResetStats zeroes the array-level statistics.
func (a *Array0) ResetStats() { a.Stats = Stats{} }
