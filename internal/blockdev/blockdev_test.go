package blockdev

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"icash/internal/sim"
)

func TestCheckRange(t *testing.T) {
	if err := CheckRange(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := CheckRange(9, 10); err != nil {
		t.Fatal(err)
	}
	if err := CheckRange(10, 10); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if err := CheckRange(-1, 10); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
}

func TestCheckBuffer(t *testing.T) {
	if err := CheckBuffer(make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := CheckBuffer(make([]byte, 100)); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("want ErrBadBuffer, got %v", err)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.NoteRead(BlockSize, 10*sim.Microsecond)
	s.NoteRead(BlockSize, 30*sim.Microsecond)
	s.NoteWrite(BlockSize, 100*sim.Microsecond)
	if s.Ops() != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if s.AvgRead() != 20*sim.Microsecond {
		t.Fatalf("avg read = %v", s.AvgRead())
	}
	if s.AvgWrite() != 100*sim.Microsecond {
		t.Fatalf("avg write = %v", s.AvgWrite())
	}
	var o Stats
	o.NoteWrite(BlockSize, 50*sim.Microsecond)
	s.Add(o)
	if s.Writes != 2 || s.WriteBytes != 2*BlockSize {
		t.Fatalf("after Add: %+v", s)
	}
	if !strings.Contains(s.String(), "reads=2") {
		t.Fatalf("String() = %q", s.String())
	}
	var empty Stats
	if empty.AvgRead() != 0 || empty.AvgWrite() != 0 {
		t.Fatal("empty averages must be zero")
	}
}

func TestMemDevice(t *testing.T) {
	m := NewMemDevice(16, 5*sim.Microsecond)
	if m.Blocks() != 16 {
		t.Fatalf("Blocks = %d", m.Blocks())
	}
	buf := make([]byte, BlockSize)
	out := make([]byte, BlockSize)

	// Unwritten block reads zeros.
	if _, err := m.ReadBlock(3, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, buf) {
		t.Fatal("unwritten block not zero")
	}

	buf[0] = 0xAB
	d, err := m.WriteBlock(3, buf)
	if err != nil || d != 5*sim.Microsecond {
		t.Fatalf("write: %v %v", d, err)
	}
	m.ReadBlock(3, out)
	if out[0] != 0xAB {
		t.Fatal("content mismatch")
	}
	// Device must copy, not alias, caller buffers.
	buf[0] = 0xCD
	m.ReadBlock(3, out)
	if out[0] != 0xAB {
		t.Fatal("device aliased the caller's buffer")
	}

	if _, err := m.ReadBlock(16, out); err == nil {
		t.Error("out-of-range read must fail")
	}
	if _, err := m.WriteBlock(0, buf[:3]); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestMemDevicePreloadAndFill(t *testing.T) {
	m := NewMemDevice(8, 0)
	m.SetFill(func(lba int64, b []byte) { b[0] = byte(lba + 100) })
	out := make([]byte, BlockSize)
	m.ReadBlock(2, out)
	if out[0] != 102 {
		t.Fatal("fill ignored")
	}
	pre := make([]byte, BlockSize)
	pre[0] = 7
	if err := m.Preload(2, pre); err != nil {
		t.Fatal(err)
	}
	m.ReadBlock(2, out)
	if out[0] != 7 {
		t.Fatal("preload did not override fill")
	}
	if err := m.Preload(8, pre); err == nil {
		t.Error("out-of-range preload must fail")
	}
	if err := m.Preload(0, pre[:9]); err == nil {
		t.Error("short preload must fail")
	}
}

// TestDiffSpanKernels: the word-at-a-time compare, and the vector one
// where the CPU has it, mark exactly the chunk of every single changed
// byte of a span, and agree on spans with many changed bytes.
func TestDiffSpanKernels(t *testing.T) {
	kernels := map[string]func(b, base *[diffSpanLen]byte) uint64{"go": diffSpanGo, "dispatch": diffSpan}
	var r sim.Rand
	r.Seed(1)
	var base, b [diffSpanLen]byte
	r.Bytes(base[:])
	for i := range diffSpanLen {
		b = base
		b[i] ^= byte(1 + r.Uint64()%255)
		for name, k := range kernels {
			if got := k(&b, &base); got != 1<<(i/PatchChunk) {
				t.Fatalf("%s: byte %d changed: mask %#x, want %#x", name, i, got, uint64(1)<<(i/PatchChunk))
			}
		}
	}
	for range 1000 {
		b = base
		for range r.Uint64() % 24 {
			b[r.Uint64()%diffSpanLen] ^= 0x80
		}
		if g, d := diffSpanGo(&b, &base), diffSpan(&b, &base); g != d {
			t.Fatalf("word compare %#x, dispatched %#x", g, d)
		}
	}
	t.Logf("AVX2: %v", useAVX2)
}
