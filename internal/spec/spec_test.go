package spec

import (
	"testing"

	"icash/internal/blockdev"
)

func val(b byte) []byte {
	v := make([]byte, blockdev.BlockSize)
	for i := range v {
		v[i] = b
	}
	return v
}

// accepts asserts exactly which of vals Check accepts at lba.
func accepts(t *testing.T, d *Disk, lba int64, want map[byte]bool, vals ...byte) {
	t.Helper()
	for _, v := range vals {
		err := d.Check(lba, val(v))
		if got := err == nil; got != want[v] {
			t.Errorf("lba %d value %d: accepted=%v, want %v (%v)", lba, v, got, want[v], err)
		}
	}
}

func set(vs ...byte) map[byte]bool {
	m := make(map[byte]bool)
	for _, v := range vs {
		m[v] = true
	}
	return m
}

func TestNeverWrittenReadsInitialContent(t *testing.T) {
	zeros := New(nil)
	accepts(t, zeros, 5, set(0), 0, 1)
	filled := New(func(lba int64, buf []byte) { copy(buf, val(byte(lba))) })
	accepts(t, filled, 7, set(7), 0, 7, 8)
}

func TestAckedWriteIsTheOnlyAcceptableRead(t *testing.T) {
	d := New(nil)
	d.Write(3, val(1), true)
	d.Write(3, val(2), true)
	accepts(t, d, 3, set(2), 0, 1, 2)
	if d.WrongLBAs() != 1 {
		t.Fatalf("WrongLBAs = %d, want 1 (two bad reads of one lba)", d.WrongLBAs())
	}
}

func TestFailedWriteAllowsOldOrNew(t *testing.T) {
	d := New(nil)
	d.Write(3, val(1), true)
	d.Write(3, val(2), false)
	accepts(t, d, 3, set(1, 2), 0, 1, 2)
	// The next acknowledged write settles the block.
	d.Write(3, val(3), true)
	accepts(t, d, 3, set(3), 1, 2, 3)
}

func TestTwoFailedWritesAllowAnyOfThree(t *testing.T) {
	d := New(nil)
	d.Write(3, val(1), true)
	d.Write(3, val(2), false)
	d.Write(3, val(3), false)
	accepts(t, d, 3, set(1, 2, 3), 0, 1, 2, 3)
}

func TestCrashKeepsPostFloorWindowOnly(t *testing.T) {
	d := New(nil)
	d.Write(3, val(1), true)
	d.Write(3, val(2), true)
	d.Flush()
	d.Write(3, val(3), true)
	d.Write(3, val(4), true)
	d.Write(9, val(5), true) // never flushed: may roll back to zeros
	d.Crash()
	accepts(t, d, 3, set(2, 3, 4), 1, 2, 3, 4)
	accepts(t, d, 9, set(0, 5), 0, 5)
}

func TestInterruptedWriteMayOrMayNotSurvive(t *testing.T) {
	d := New(nil)
	d.Write(3, val(1), true)
	d.Flush()
	d.Write(3, val(2), false) // the write the power cut interrupted
	d.Crash()
	accepts(t, d, 3, set(1, 2), 0, 1, 2)
}
