package blockdev

import "encoding/binary"

// Store is the content of one simulated device: the capacity, the fill
// oracle for never-written blocks and the written blocks themselves.
// Every device model (MemDevice, hdd.Device, ssd.Device) embeds one and
// layers its own timing, wear and statistics on top.
//
// A written block is kept only up to its last non-zero byte. A journal
// or log block that carries ~100 bytes of deltas costs ~100 bytes of
// heap, not 4 KB, and reads back byte for byte: Read clears the
// trimmed tail. A block written as all zeros keeps an empty entry, so
// it reads as zeros and never as the fill content.
type Store struct {
	blocks int64
	fill   FillFunc
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

// Read fills buf with block lba: the kept bytes and zeros after them,
// or the fill oracle's content (zeros without one) if lba was never
// written. The caller has validated lba and buf.
func (s *Store) Read(lba int64, buf []byte) {
	if b, ok := s.data[lba]; ok {
		clear(buf[copy(buf, b):])
	} else if s.fill != nil {
		s.fill(lba, buf)
	} else {
		clear(buf)
	}
}

// Write keeps buf at lba up to its last non-zero byte. A rewrite reuses
// the entry's capacity when the kept bytes fit and never shrinks it, so
// a log block rewritten on every wrap allocates once. The caller has
// validated lba and buf.
func (s *Store) Write(lba int64, buf []byte) {
	s.data[lba] = append(s.data[lba][:0], buf[:keptLen(buf)]...)
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
