package raid

import (
	"bytes"
	"testing"
	"testing/quick"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

func memMembers(n int, blocks int64) []blockdev.Device {
	ms := make([]blockdev.Device, n)
	for i := range ms {
		ms[i] = blockdev.NewMemDevice(blocks, 10*sim.Microsecond)
	}
	return ms
}

func TestNewValidation(t *testing.T) {
	if _, err := NewArray0(nil, 32); err == nil {
		t.Error("empty member set must fail")
	}
	if _, err := NewArray0(memMembers(2, 64), 0); err == nil {
		t.Error("zero chunk must fail")
	}
}

func TestCapacityWholeChunks(t *testing.T) {
	// 100-block members with 32-block chunks: only 3 whole chunks per
	// member participate (96 blocks), as in Linux MD.
	a, err := NewArray0(memMembers(4, 100), 32)
	if err != nil {
		t.Fatal(err)
	}
	if a.Blocks() != 4*96 {
		t.Fatalf("capacity = %d, want %d", a.Blocks(), 4*96)
	}
}

func TestStripingLayout(t *testing.T) {
	a, err := NewArray0(memMembers(4, 128), 32)
	if err != nil {
		t.Fatal(err)
	}
	// Array LBA 0..31 -> member 0, 32..63 -> member 1, etc.; second
	// round of chunks goes back to member 0 at its chunk 1.
	cases := []struct{ lba, member, mlba int64 }{
		{0, 0, 0},
		{31, 0, 31},
		{32, 1, 0},
		{96, 3, 0},
		{128, 0, 32},
		{129, 0, 33},
		{160, 1, 32},
	}
	for _, c := range cases {
		m, mlba := a.locate(c.lba)
		if int64(m) != c.member || mlba != c.mlba {
			t.Errorf("locate(%d) = (%d, %d), want (%d, %d)", c.lba, m, mlba, c.member, c.mlba)
		}
	}
}

func TestRoundTripAndDistribution(t *testing.T) {
	members := memMembers(4, 256)
	a, err := NewArray0(members, 16)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	out := make([]byte, blockdev.BlockSize)
	r := sim.NewRand(5)
	model := map[int64][]byte{}
	for i := 0; i < 3000; i++ {
		lba := r.Int63n(a.Blocks())
		if r.Float64() < 0.5 {
			r.Bytes(buf)
			if _, err := a.WriteBlock(lba, buf); err != nil {
				t.Fatal(err)
			}
			model[lba] = append([]byte(nil), buf...)
		} else {
			if _, err := a.ReadBlock(lba, out); err != nil {
				t.Fatal(err)
			}
			want := model[lba]
			if want == nil {
				want = make([]byte, blockdev.BlockSize)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("lba %d mismatch", lba)
			}
		}
	}
	// Uniform random traffic must spread across all members.
	for i, m := range members {
		md := m.(*blockdev.MemDevice)
		if md.Stats.Ops() < 100 {
			t.Errorf("member %d received only %d ops", i, md.Stats.Ops())
		}
	}
}

func TestBounds(t *testing.T) {
	a, _ := NewArray0(memMembers(2, 64), 16)
	buf := make([]byte, blockdev.BlockSize)
	if _, err := a.ReadBlock(a.Blocks(), buf); err == nil {
		t.Error("out-of-range read must fail")
	}
	if _, err := a.WriteBlock(-1, buf); err == nil {
		t.Error("negative write must fail")
	}
}

func TestPreloadAndFill(t *testing.T) {
	// Fill oracle addresses must translate back to array LBAs.
	a2, _ := NewArray0(memMembers(4, 128), 32)
	got := make([]byte, blockdev.BlockSize)
	a2.SetFill(func(lba int64, buf []byte) {
		buf[0] = byte(lba % 251)
	})
	for _, lba := range []int64{0, 31, 32, 100, 200, 400, 511} {
		a2.ReadBlock(lba, got)
		if got[0] != byte(lba%251) {
			t.Errorf("fill for lba %d returned tag %d, want %d", lba, got[0], byte(lba%251))
		}
	}
}

// Property: locate is a bijection from array LBAs onto (member, mlba)
// pairs within capacity.
func TestLocateBijectionProperty(t *testing.T) {
	a, _ := NewArray0(memMembers(3, 96), 8)
	seen := make(map[[2]int64]int64)
	f := func(raw uint32) bool {
		lba := int64(raw) % a.Blocks()
		m, mlba := a.locate(lba)
		if mlba >= 96 || m < 0 || m >= 3 {
			return false
		}
		key := [2]int64{int64(m), mlba}
		if prev, ok := seen[key]; ok && prev != lba {
			return false // two LBAs mapped to one physical location
		}
		seen[key] = lba
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
