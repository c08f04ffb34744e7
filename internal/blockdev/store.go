package blockdev

import (
	"encoding/binary"
	"slices"
)

// Store is the content of one simulated device: the capacity, the fill
// oracle for never-written blocks, the basis written blocks are kept
// against and the written blocks themselves. Every device model
// (MemDevice, hdd.Device, ssd.Device) embeds one and layers its own
// timing, wear and statistics on top. A Store belongs to one goroutine.
//
// A written block is kept in one of two forms, and reads back byte for
// byte from either:
//
//   - raw: the block up to its last non-zero byte. A journal or log
//     block that carries ~100 bytes of deltas costs ~100 bytes of heap,
//     not 4 KB; Read clears the trimmed tail. A block written as all
//     zeros keeps an empty entry, so it reads as zeros and never as the
//     fill or the basis content.
//   - patched: the block's difference from its basis (patch.go), when
//     that is smaller than both PatchLimit and the raw form. A patch
//     ends in a zero byte and a raw entry never does, so the last byte
//     tells the forms apart.
type Store struct {
	blocks int64
	fill   FillFunc
	basis  Basis
	data   map[int64][]byte
}

// NewStore returns an empty store of the given capacity in blocks.
func NewStore(blocks int64) Store {
	return Store{blocks: blocks, data: make(map[int64][]byte)}
}

// Blocks returns the capacity in blocks.
func (s *Store) Blocks() int64 { return s.blocks }

// Check validates a request's lba against the capacity and its buffer
// length.
func (s *Store) Check(lba int64, buf []byte) error {
	if err := CheckRange(lba, s.blocks); err != nil {
		return err
	}
	return CheckBuffer(buf)
}

// Read fills buf with block lba: the basis with the patch applied, the
// kept bytes and zeros after them, or the fill oracle's content (zeros
// without one) if lba was never written. The caller has validated lba
// and buf.
func (s *Store) Read(lba int64, buf []byte) {
	b, ok := s.data[lba]
	switch {
	case isPatch(b):
		ApplyPatch(buf, s.basis.Basis(lba), b)
	case ok:
		clear(buf[copy(buf, b):])
	case s.fill != nil:
		s.fill(lba, buf)
	default:
		clear(buf)
	}
}

// Write keeps buf at lba, patched against its basis when that is
// smaller, raw otherwise. A rewrite reuses the entry's capacity when
// the new form fits and never shrinks it, so a log block rewritten on
// every wrap allocates once. The caller has validated lba and buf.
func (s *Store) Write(lba int64, buf []byte) {
	n := keptLen(buf)
	e := s.data[lba][:0]
	if s.basis != nil {
		if base := s.basis.Basis(lba); base != nil {
			if mask, ok := DiffMask(buf, base, min(n, PatchLimit)); ok {
				s.data[lba] = AppendPatch(e, buf, mask)
				return
			}
		}
	}
	s.data[lba] = append(e, buf[:n]...)
}

// keptLen is the length of b up to its last non-zero byte. It steps
// back a word at a time, so a block of random data stops at once.
func keptLen(b []byte) int {
	n := len(b)
	for n >= 8 && binary.LittleEndian.Uint64(b[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return n
}

// isPatch reports whether entry e is a patch.
func isPatch(e []byte) bool { return len(e) > 0 && e[len(e)-1] == 0 }

// Corrupt flips one bit of block lba's content, bypassing timing, wear
// and statistics: the device keeps serving the damaged bytes with no
// error — a seeded silent bit-rot for integrity tests and demos. An
// unwritten block is materialized from the fill oracle first, so the
// corruption shows against the expected content. bit is taken modulo
// the block's bit count.
func (s *Store) Corrupt(lba int64, bit int) error {
	if err := CheckRange(lba, s.blocks); err != nil {
		return err
	}
	b := make([]byte, BlockSize)
	s.Read(lba, b)
	const n = BlockSize * 8
	bit = ((bit % n) + n) % n
	b[bit/8] ^= 1 << uint(bit%8)
	s.Write(lba, b)
	return nil
}

// SetFill installs the initial-content oracle for unwritten blocks.
func (s *Store) SetFill(f FillFunc) { s.fill = f }

// SetBasis installs the basis later writes are patched against (nil
// for none). Installing the basis the store already holds does
// nothing. Installing another one keeps every block's content: the
// blocks held as patches are re-stored against the new basis, in LBA
// order.
func (s *Store) SetBasis(b Basis) {
	if b == s.basis {
		return
	}
	old := s.basis
	s.basis = b
	var patched []int64
	for lba, e := range s.data {
		if isPatch(e) {
			patched = append(patched, lba)
		}
	}
	if len(patched) == 0 {
		return
	}
	slices.Sort(patched)
	buf := make([]byte, BlockSize)
	for _, lba := range patched {
		ApplyPatch(buf, old.Basis(lba), s.data[lba])
		s.Write(lba, buf)
	}
}

// Kept reports whether block lba has been written and, if so, whether
// it is kept as a patch against the basis.
func (s *Store) Kept(lba int64) (written, patched bool) {
	e, ok := s.data[lba]
	return ok, isPatch(e)
}
