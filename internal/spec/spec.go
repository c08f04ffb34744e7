// Package spec is the one definition of a correct array: a map from
// LBA to the last acknowledged 4 KB block, where a crash may drop only
// what the last flush did not cover. The crash sweeps, the chaos soak
// and the served simulation each drive a Disk beside the array and
// check every read against it. In the style of go-nfsd's abstract disk
// it has explicit transitions and nothing else: Write, Flush, Crash,
// and Check.
//
// Values are kept as SHA-256 digests: 32 bytes per write, and any
// corruption, not just a header swap, still fails Check.
package spec

import (
	"crypto/sha256"
	"fmt"

	"icash/internal/blockdev"
)

type digest [sha256.Size]byte

// block is one LBA's history: vals[0] is its initial content, then one
// entry per write. A read may return vals[lo:], and after a crash
// vals[durable:] (durable <= lo).
type block struct {
	vals        []digest
	lo, durable int
}

// Disk is the abstract disk. It is not safe for concurrent use.
type Disk struct {
	fill   blockdev.FillFunc
	blocks map[int64]*block
	wrong  map[int64]bool
	buf    []byte
}

// New returns a Disk whose never-written blocks hold fill's content
// (nil means zeros).
func New(fill blockdev.FillFunc) *Disk {
	return &Disk{fill: fill, blocks: make(map[int64]*block), wrong: make(map[int64]bool),
		buf: make([]byte, blockdev.BlockSize)}
}

func (d *Disk) initial(lba int64) digest {
	clear(d.buf)
	if d.fill != nil {
		d.fill(lba, d.buf)
	}
	return sha256.Sum256(d.buf)
}

// Write records a write of content to lba. An acknowledged write
// becomes the block's only acceptable content; an unacknowledged one
// (failed, or interrupted by a power cut) may or may not have landed,
// so it joins the acceptable values and is never confirmed.
func (d *Disk) Write(lba int64, content []byte, acked bool) {
	b := d.blocks[lba]
	if b == nil {
		b = &block{vals: []digest{d.initial(lba)}}
		d.blocks[lba] = b
	}
	b.vals = append(b.vals, sha256.Sum256(content))
	if acked {
		b.lo = len(b.vals) - 1
	}
}

// Flush makes every block's last acknowledged write durable.
func (d *Disk) Flush() {
	for _, b := range d.blocks {
		b.durable = b.lo
	}
}

// Crash drops the unflushed window: a block may then hold any value
// written since its durable floor.
func (d *Disk) Crash() {
	for _, b := range d.blocks {
		b.lo = b.durable
	}
}

// Check validates content read from lba; a mismatch also counts lba
// as wrong.
func (d *Disk) Check(lba int64, got []byte) error {
	err := d.check(lba, sha256.Sum256(got))
	if err != nil {
		d.wrong[lba] = true
	}
	return err
}

func (d *Disk) check(lba int64, sum digest) error {
	b := d.blocks[lba]
	if b == nil {
		if sum != d.initial(lba) {
			return fmt.Errorf("lba %d: never written, but content differs from its initial content", lba)
		}
		return nil
	}
	for i := len(b.vals) - 1; i >= 0; i-- {
		if b.vals[i] != sum {
			continue
		}
		if i < b.lo {
			return fmt.Errorf("lba %d: read version %d, floor is %d (acknowledged write lost)", lba, i, b.lo)
		}
		return nil
	}
	return fmt.Errorf("lba %d: content matches no written version (corruption)", lba)
}

// WrongLBAs returns the number of distinct LBAs that ever failed Check,
// the unit the controller's loss counters speak in.
func (d *Disk) WrongLBAs() int { return len(d.wrong) }
