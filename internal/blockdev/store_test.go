package blockdev_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/hdd"
	"icash/internal/race"
	"icash/internal/ssd"
)

// storeDevice is what every device model gets from its embedded Store
// plus its own timed paths.
type storeDevice interface {
	blockdev.Device
	blockdev.Preloader
	blockdev.Filler
	Corrupt(lba int64, bit int) error
}

// storeDevices builds one of each device model that keeps its content
// in a blockdev.Store.
func storeDevices(blocks int64) map[string]storeDevice {
	return map[string]storeDevice{
		"mem": blockdev.NewMemDevice(blocks, 0),
		"hdd": hdd.New(hdd.DefaultConfig(blocks)),
		"ssd": ssd.New(ssd.DefaultConfig(blocks)),
	}
}

// testFill is a fill oracle with no zero byte, the last one included.
func testFill(lba int64, buf []byte) {
	for i := range buf {
		buf[i] = byte(lba)*31 + byte(i%251) | 1
	}
}

// prefixBlock is a block whose first n bytes are non-zero (value v) and
// whose tail is zeros.
func prefixBlock(n int, v byte) []byte {
	b := make([]byte, blockdev.BlockSize)
	for i := range n {
		b[i] = v
	}
	return b
}

func fillBlock(lba int64) []byte {
	b := make([]byte, blockdev.BlockSize)
	testFill(lba, b)
	return b
}

func flip(b []byte, bit int) []byte {
	b[bit/8] ^= 1 << uint(bit%8)
	return b
}

// TestStore runs every Store behaviour against every device model: the
// device must read back exactly what the table says, whatever it keeps.
func TestStore(t *testing.T) {
	const lba = 3
	zero := make([]byte, blockdev.BlockSize)
	cases := []struct {
		name string
		fill bool
		// steps act on the device; want is what lba then reads.
		steps func(t *testing.T, d storeDevice)
		want  []byte
	}{
		{"unwritten", false, nil, zero},
		{"unwritten-fill", true, nil, fillBlock(lba)},
		{"zeros-over-fill", true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, zero)
		}, zero},
		{"rewrite-longer", true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, prefixBlock(100, 7))
			write(t, d, lba, prefixBlock(3000, 9))
		}, prefixBlock(3000, 9)},
		{"rewrite-shorter", true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, prefixBlock(100, 7))
			write(t, d, lba, prefixBlock(3000, 9))
			write(t, d, lba, prefixBlock(10, 5))
		}, prefixBlock(10, 5)},
		{"dense", false, func(t *testing.T, d storeDevice) {
			write(t, d, lba, fillBlock(99))
		}, fillBlock(99)},
		{"preload", true, func(t *testing.T, d storeDevice) {
			if err := d.Preload(lba, prefixBlock(77, 2)); err != nil {
				t.Fatal(err)
			}
		}, prefixBlock(77, 2)},
		{"corrupt-trimmed-tail", true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, prefixBlock(100, 7))
			if err := d.Corrupt(lba, 2000*8+3); err != nil {
				t.Fatal(err)
			}
		}, flip(prefixBlock(100, 7), 2000*8+3)},
		{"corrupt-unwritten", false, func(t *testing.T, d storeDevice) {
			if err := d.Corrupt(lba, -1); err != nil {
				t.Fatal(err)
			}
		}, flip(make([]byte, blockdev.BlockSize), blockdev.BlockSize*8-1)},
		{"corrupt-unwritten-fill", true, func(t *testing.T, d storeDevice) {
			if err := d.Corrupt(lba, 12345); err != nil {
				t.Fatal(err)
			}
		}, flip(fillBlock(lba), 12345)},
	}
	for _, c := range cases {
		for name, d := range storeDevices(64) {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				if c.fill {
					d.SetFill(testFill)
				}
				if c.steps != nil {
					c.steps(t, d)
				}
				got := make([]byte, blockdev.BlockSize)
				if _, err := d.ReadBlock(lba, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, c.want) {
					t.Fatalf("read back differs from the expected block at byte %d", firstDiff(got, c.want))
				}
				if err := d.Corrupt(64, 0); err == nil {
					t.Fatal("Corrupt past the capacity succeeded")
				}
			})
		}
	}
}

func write(t *testing.T, d blockdev.Device, lba int64, b []byte) {
	t.Helper()
	if _, err := d.WriteBlock(lba, b); err != nil {
		t.Fatal(err)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// FuzzStore drives random writes, reads and corrupts against a model
// that keeps every block whole. Each op is 4 bytes: kind, lba and a
// 16-bit argument (kept length for a write, bit for a corrupt).
func FuzzStore(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 1, 2, 100, 0, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0xff, 0x0f, 1, 1, 10, 0, 2, 1, 0x40, 0x7d, 0, 1, 0, 0})
	f.Add([]byte{0xff, 2, 3, 4, 0, 0, 1, 0, 1, 5, 0, 0x10, 2, 7, 0xff, 0xff, 0, 7, 0, 0})
	f.Add([]byte{1, 3, 8, 0, 1, 3, 16, 0, 1, 3, 9, 0, 2, 3, 17, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const blocks = 8
		s := blockdev.NewStore(blocks)
		var model [blocks][blockdev.BlockSize]byte
		if len(prog) > 0 && prog[0]&0x80 != 0 {
			s.SetFill(testFill)
			for lba := range model {
				testFill(int64(lba), model[lba][:])
			}
		}
		buf := make([]byte, blockdev.BlockSize)
		for len(prog) >= 4 {
			kind, lba, arg := prog[0]%3, int64(prog[1]%blocks), int(binary.LittleEndian.Uint16(prog[2:4]))
			prog = prog[4:]
			switch kind {
			case 0:
				s.Read(lba, buf)
				if !bytes.Equal(buf, model[lba][:]) {
					t.Fatalf("lba %d read differs from the model at byte %d", lba, firstDiff(buf, model[lba][:]))
				}
			case 1:
				// Non-zero bytes up to arg, with zero runs inside, so the
				// kept length lands on and off word boundaries.
				n := arg % (blockdev.BlockSize + 1)
				clear(buf)
				for i := range n {
					buf[i] = byte(i*int(lba+1) + arg)
				}
				s.Write(lba, buf)
				copy(model[lba][:], buf)
			case 2:
				if err := s.Corrupt(lba, arg); err != nil {
					t.Fatal(err)
				}
				flip(model[lba][:], arg%(blockdev.BlockSize*8))
			}
		}
	})
}

// TestAllocGateStore: once an entry has grown to hold a block's kept
// bytes, rewriting that block (longer up to the capacity, or shorter)
// and reading it back allocates nothing.
func TestAllocGateStore(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := blockdev.NewStore(4)
	long, short, out := prefixBlock(100, 7), prefixBlock(20, 3), make([]byte, blockdev.BlockSize)
	s.Write(1, long)
	if got := testing.AllocsPerRun(100, func() {
		s.Write(1, short)
		s.Read(1, out)
		s.Write(1, long)
		s.Read(1, out)
	}); got != 0 {
		t.Fatalf("rewriting a block that fits its entry allocated %v objects/op, want 0", got)
	}
}

// TestStoreFootprint pins the gain of keeping blocks only up to their
// last non-zero byte: 2,048 blocks of 100 bytes each must cost well
// under a quarter of the 8 MB their full images would.
func TestStoreFootprint(t *testing.T) {
	const n = 2048
	b := prefixBlock(100, 0x5C)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := blockdev.NewStore(n)
	for lba := range int64(n) {
		s.Write(lba, b)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&s)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= n*256 {
		t.Fatalf("%d blocks of 100 bytes hold %d B of heap, want < %d", n, grew, n*256)
	}
}
