package blockdev_test

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
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
	blockdev.Filler
	blockdev.Baser
	Corrupt(lba int64, bit int) error
	Kept(lba int64) (written, patched bool)
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

// testBasis is a basis whose block has no zero byte; it has none for
// lba nilAt.
type testBasis struct {
	block []byte
	nilAt int64
}

func newTestBasis(seed, nilAt int64) *testBasis {
	return &testBasis{block: fillBlock(seed), nilAt: nilAt}
}

func (b *testBasis) Basis(lba int64) []byte {
	if lba == b.nilAt {
		return nil
	}
	return b.block
}

// nearBlock is block base with n bytes overwritten from byte at.
func nearBlock(base []byte, at, n int) []byte {
	b := bytes.Clone(base)
	for i := at; i < at+n; i++ {
		b[i] ^= 0x5A
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
	// basis is the one installed by the cases that set basis; lba 5 has
	// none.
	basis := newTestBasis(1000, 5)
	near := nearBlock(basis.block, 700, 40) // two chunks differ
	random := fillBlock(99)
	cases := []struct {
		name        string
		fill, basis bool
		// steps act on the device; want is what lba then reads.
		steps func(t *testing.T, d storeDevice)
		want  []byte
		// patched is whether lba must then be kept as a patch.
		patched bool
	}{
		{name: "unwritten", want: zero},
		{name: "unwritten-fill", fill: true, want: fillBlock(lba)},
		{"zeros-over-fill", true, false, func(t *testing.T, d storeDevice) {
			write(t, d, lba, zero)
		}, zero, false},
		{"rewrite-longer", true, false, func(t *testing.T, d storeDevice) {
			write(t, d, lba, prefixBlock(100, 7))
			write(t, d, lba, prefixBlock(3000, 9))
		}, prefixBlock(3000, 9), false},
		{"rewrite-shorter", true, false, func(t *testing.T, d storeDevice) {
			write(t, d, lba, prefixBlock(100, 7))
			write(t, d, lba, prefixBlock(3000, 9))
			write(t, d, lba, prefixBlock(10, 5))
		}, prefixBlock(10, 5), false},
		{"dense", false, false, func(t *testing.T, d storeDevice) {
			write(t, d, lba, fillBlock(99))
		}, fillBlock(99), false},
		{"corrupt-trimmed-tail", true, false, func(t *testing.T, d storeDevice) {
			write(t, d, lba, prefixBlock(100, 7))
			if err := d.Corrupt(lba, 2000*8+3); err != nil {
				t.Fatal(err)
			}
		}, flip(prefixBlock(100, 7), 2000*8+3), false},
		{"corrupt-unwritten", false, false, func(t *testing.T, d storeDevice) {
			if err := d.Corrupt(lba, -1); err != nil {
				t.Fatal(err)
			}
		}, flip(make([]byte, blockdev.BlockSize), blockdev.BlockSize*8-1), false},
		{"corrupt-unwritten-fill", true, false, func(t *testing.T, d storeDevice) {
			if err := d.Corrupt(lba, 12345); err != nil {
				t.Fatal(err)
			}
		}, flip(fillBlock(lba), 12345), false},
		{"basis-near", true, true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, near)
		}, near, true},
		{"basis-random", true, true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, random)
		}, random, false},
		{"basis-equal", true, true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, basis.block)
		}, basis.block, true},
		{"basis-zeros", true, true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, zero)
		}, zero, false},
		{"basis-corrupt-patched-chunk", false, true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, near)
			if err := d.Corrupt(lba, 710*8+1); err != nil {
				t.Fatal(err)
			}
		}, flip(bytes.Clone(near), 710*8+1), true},
		{"basis-corrupt-unpatched-chunk", false, true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, near)
			if err := d.Corrupt(lba, 3000*8+6); err != nil {
				t.Fatal(err)
			}
		}, flip(bytes.Clone(near), 3000*8+6), true},
		{"basis-patched-raw-patched", true, true, func(t *testing.T, d storeDevice) {
			write(t, d, lba, near)
			write(t, d, lba, random)
			if _, patched := d.Kept(lba); patched {
				t.Fatal("a random rewrite is still kept as a patch")
			}
			write(t, d, lba, nearBlock(basis.block, 4000, 96))
		}, nearBlock(basis.block, 4000, 96), true},
		{"basis-nil-at-lba", true, true, func(t *testing.T, d storeDevice) {
			write(t, d, 5, near)
			write(t, d, lba, near)
			if _, patched := d.Kept(5); patched {
				t.Fatal("a block the basis has none for is kept as a patch")
			}
			got := make([]byte, blockdev.BlockSize)
			if _, err := d.ReadBlock(5, got); err != nil || !bytes.Equal(got, near) {
				t.Fatalf("lba 5 read back differs (err %v)", err)
			}
		}, near, true},
	}
	for _, c := range cases {
		for name, d := range storeDevices(64) {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				if c.fill {
					d.SetFill(testFill)
				}
				if c.basis {
					d.SetBasis(basis)
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
				if _, patched := d.Kept(lba); patched != c.patched {
					t.Fatalf("kept as a patch: %v, want %v", patched, c.patched)
				}
				if !bytes.Equal(basis.block, fillBlock(1000)) {
					t.Fatal("the store wrote into its basis")
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
// that keeps every block whole, with a fill and a basis each on or off
// (bits 7 and 6 of the first byte). Each op is 4 bytes: kind, lba and a
// 16-bit argument (kept length for a write, bit for a corrupt, start of
// the changed run for a write near the basis).
func FuzzStore(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 1, 2, 100, 0, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0xff, 0x0f, 1, 1, 10, 0, 2, 1, 0x40, 0x7d, 0, 1, 0, 0})
	f.Add([]byte{0xff, 2, 3, 4, 0, 0, 1, 0, 1, 5, 0, 0x10, 2, 7, 0xff, 0xff, 0, 7, 0, 0})
	f.Add([]byte{1, 3, 8, 0, 1, 3, 16, 0, 1, 3, 9, 0, 2, 3, 17, 0, 0, 3, 0, 0})
	f.Add([]byte{0x43, 2, 0xbc, 0x02, 0, 2, 0, 0, 2, 2, 0x30, 0x16, 0, 2, 0, 0, 1, 2, 0xff, 0x0f, 3, 2, 0, 0x0f, 3, 7, 9, 0, 0, 7, 0, 0})
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
		basis := newTestBasis(1000, 7)
		if len(prog) > 0 && prog[0]&0x40 != 0 {
			s.SetBasis(basis)
		}
		buf := make([]byte, blockdev.BlockSize)
		for len(prog) >= 4 {
			kind, lba, arg := prog[0]%4, int64(prog[1]%blocks), int(binary.LittleEndian.Uint16(prog[2:4]))
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
			case 3:
				// The basis with a run of up to 1 KB changed at arg's low
				// 12 bits, its length from the top 4: kept as a patch or
				// raw, depending on how many chunks it spans.
				at := arg % blockdev.BlockSize
				copy(buf, nearBlock(basis.block, at, min(1+arg>>12*70, blockdev.BlockSize-at)))
				s.Write(lba, buf)
				copy(model[lba][:], buf)
			}
			if !bytes.Equal(basis.block, fillBlock(1000)) {
				t.Fatal("the store wrote into its basis")
			}
		}
	})
}

// TestAllocGateStore: once an entry has grown to hold a block, reading
// it back and rewriting it in a form that fits allocate nothing: a raw
// block rewritten longer up to the capacity or shorter, a patched block
// rewritten with a patch that fits, and a write whose patch attempt is
// rejected.
func TestAllocGateStore(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	basis := newTestBasis(1000, -1)
	out := make([]byte, blockdev.BlockSize)
	for _, c := range []struct {
		name   string
		blocks [][]byte // written in turn, each read back
	}{
		{"raw", [][]byte{prefixBlock(20, 3), prefixBlock(100, 7)}},
		{"patched", [][]byte{nearBlock(basis.block, 100, 100), nearBlock(basis.block, 3000, 10)}},
		{"patch-rejected", [][]byte{fillBlock(98), fillBlock(99)}},
	} {
		s := blockdev.NewStore(4)
		s.SetBasis(basis)
		for _, b := range c.blocks {
			s.Write(1, b)
		}
		if got := testing.AllocsPerRun(100, func() {
			for _, b := range c.blocks {
				s.Write(1, b)
				s.Read(1, out)
			}
		}); got != 0 {
			t.Errorf("%s: rewriting a block that fits its entry allocated %v objects/op, want 0", c.name, got)
		}
		if _, patched := s.Kept(1); patched != (c.name == "patched") {
			t.Errorf("%s: kept as a patch: %v", c.name, patched)
		}
	}
}

// TestStoreFootprint pins the gains of the two compact forms: 2,048
// blocks of 100 bytes each must cost well under a quarter of the 8 MB
// their full images would, and 2,048 blocks that each differ from one
// basis in 2 % of their bytes, in 16-64-byte runs, under a quarter.
func TestStoreFootprint(t *testing.T) {
	const n = 2048
	basis := newTestBasis(1000, -1)
	for _, c := range []struct {
		name  string
		block func(lba int64, b []byte)
		limit int64
	}{
		{"trimmed", func(_ int64, b []byte) { copy(b, prefixBlock(100, 0x5C)) }, n * 256},
		{"patched", func(lba int64, b []byte) { mutateRuns(b, basis.block, lba, 0.02) }, n * 1024},
	} {
		b := make([]byte, blockdev.BlockSize)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := blockdev.NewStore(n)
		s.SetBasis(basis)
		patched := 0
		for lba := range int64(n) {
			c.block(lba, b)
			s.Write(lba, b)
			if _, p := s.Kept(lba); p {
				patched++
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(&s)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= c.limit {
			t.Errorf("%s: %d blocks hold %d B of heap (%d kept as patches), want < %d", c.name, n, grew, patched, c.limit)
		}
	}
}

// mutateRuns copies base into b and overwrites frac of its bytes in
// runs of 16-64 bytes at positions seeded by seed.
func mutateRuns(b, base []byte, seed int64, frac float64) {
	copy(b, base)
	r := rand.New(rand.NewPCG(uint64(seed), 7))
	for left := int(frac * blockdev.BlockSize); left > 0; {
		run := min(16+r.IntN(49), left)
		at := r.IntN(blockdev.BlockSize - run)
		for i := at; i < at+run; i++ {
			b[i] = byte(r.Uint32()) | 1
		}
		left -= run
	}
}

// TestStoreSetBasis: a store takes one basis for its life. Installing
// it again is free and keeps every block; installing another panics.
func TestStoreSetBasis(t *testing.T) {
	a, b := newTestBasis(1000, -1), newTestBasis(2000, -1)
	want := [][]byte{
		nearBlock(a.block, 0, 64),
		nearBlock(a.block, 4000, 96),
		a.block,
		fillBlock(99),
		make([]byte, blockdev.BlockSize),
	}
	s := blockdev.NewStore(8)
	s.SetBasis(a)
	for lba := range int64(len(want)) {
		s.Write(lba, want[lba])
	}
	check := func(stage string) {
		t.Helper()
		got := make([]byte, blockdev.BlockSize)
		for lba := range int64(len(want)) {
			s.Read(lba, got)
			if !bytes.Equal(got, want[lba]) {
				t.Fatalf("%s: lba %d reads back wrong at byte %d", stage, lba, firstDiff(got, want[lba]))
			}
			if _, p := s.Kept(lba); p != (lba <= 2) {
				t.Fatalf("%s: lba %d kept as a patch: %v", stage, lba, p)
			}
		}
	}
	check("basis a")
	if got := testing.AllocsPerRun(10, func() { s.SetBasis(a) }); got != 0 && !race.Enabled {
		t.Fatalf("re-installing the same basis allocated %v objects, want 0", got)
	}
	check("basis a again")
	defer func() {
		if recover() == nil {
			t.Fatal("installing a different basis did not panic")
		}
	}()
	s.SetBasis(b)
}
