package sig

import (
	"testing"
	"testing/quick"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

func block(fill func(i int) byte) []byte {
	b := make([]byte, blockdev.BlockSize)
	for i := range b {
		b[i] = fill(i)
	}
	return b
}

func TestComputeSampledOffsets(t *testing.T) {
	// The signature must depend exactly on offsets 0, 16, 32 and 64 of
	// each sub-block (paper §4.2).
	base := block(func(int) byte { return 0 })
	s0 := Compute(base)
	for i := 0; i < SubBlocks; i++ {
		if s0[i] != 0 {
			t.Fatalf("zero block sub-signature %d = %d", i, s0[i])
		}
	}

	// Changing a sampled byte changes that sub-signature only.
	for sub := 0; sub < SubBlocks; sub++ {
		for _, off := range []int{0, 16, 32, 64} {
			b := block(func(int) byte { return 0 })
			b[sub*SubBlockSize+off] = 7
			s := Compute(b)
			for i := 0; i < SubBlocks; i++ {
				want := byte(0)
				if i == sub {
					want = 7
				}
				if s[i] != want {
					t.Fatalf("sub %d offset %d: signature[%d] = %d, want %d", sub, off, i, s[i], want)
				}
			}
		}
	}

	// Changing a non-sampled byte changes nothing.
	b := block(func(int) byte { return 0 })
	b[5] = 99  // offset 5 is not sampled
	b[100] = 3 // offset 100 is not sampled
	if Compute(b) != s0 {
		t.Fatal("non-sampled byte affected the signature")
	}
}

func TestComputeSumModulo(t *testing.T) {
	// Sub-signature is the byte sum of the four samples (mod 256).
	b := block(func(int) byte { return 0 })
	b[0], b[16], b[32], b[64] = 200, 100, 50, 25 // sums to 375 = 119 mod 256
	s := Compute(b)
	if s[0] != byte(375%256) {
		t.Fatalf("signature[0] = %d, want %d", s[0], 375%256)
	}
}

func TestComputePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short block")
		}
	}()
	Compute(make([]byte, 100))
}

// TestHeatmapPaperTable1 reproduces the paper's Table 1 walk-through:
// 2 sub-blocks, 4 signature values, contents A,B,C,D with signatures
// a,b,c,d; after accesses (A,B), (C,D), (A,D), (B,D) the heatmap is
// {(2,1,1,0),(0,1,0,3)}.
func TestHeatmapPaperTable1(t *testing.T) {
	// Model the didactic example on the real 8x256 heatmap by using
	// sub-signature values 0..3 ("a".."d") on rows 0 and 1 and leaving
	// the remaining rows at signature 0.
	const a, b, c, d = 0, 1, 2, 3
	h := NewHeatmap()
	mk := func(s0, s1 byte) Signature {
		var s Signature
		s[0], s[1] = s0, s1
		return s
	}
	seq := []Signature{
		mk(a, b), // LBA1: content (A, B)
		mk(c, d), // LBA2: content (C, D)
		mk(a, d), // LBA3: content (A, D)
		mk(b, d), // LBA4: content (B, D)
	}
	for _, s := range seq {
		h.Record(s)
	}
	want0 := [4]uint64{2, 1, 1, 0}
	want1 := [4]uint64{0, 1, 0, 3}
	for v := byte(0); v < 4; v++ {
		if got := h.Value(0, v); got != want0[v] {
			t.Errorf("Heatmap[0][%c] = %d, want %d", 'a'+v, got, want0[v])
		}
		if got := h.Value(1, v); got != want1[v] {
			t.Errorf("Heatmap[1][%c] = %d, want %d", 'a'+v, got, want1[v])
		}
	}
}

// TestReferenceSelectionPaperTable2 reproduces Table 2: with the Table 1
// heatmap, block (A, D) has the highest popularity (5) and becomes the
// reference.
func TestReferenceSelectionPaperTable2(t *testing.T) {
	const a, b, c, d = 0, 1, 2, 3
	h := NewHeatmap()
	mk := func(s0, s1 byte) Signature {
		var s Signature
		s[0], s[1] = s0, s1
		return s
	}
	blocks := map[string]Signature{
		"AB": mk(a, b),
		"CD": mk(c, d),
		"AD": mk(a, d),
		"BD": mk(b, d),
	}
	for _, name := range []string{"AB", "CD", "AD", "BD"} {
		h.Record(blocks[name])
	}
	// Popularity per Table 2 — with 8 sub-blocks, rows 2..7 all record
	// signature value 0, adding a constant 4*6 = 24 to each block.
	const rowsBias = 4 * 6
	want := map[string]uint64{"AB": 3, "CD": 4, "AD": 5, "BD": 4}
	best, bestPop := "", uint64(0)
	for name, s := range blocks {
		got := h.Popularity(s) - rowsBias
		if got != want[name] {
			t.Errorf("popularity(%s) = %d, want %d", name, got, want[name])
		}
		if got > bestPop {
			best, bestPop = name, got
		}
	}
	if best != "AD" {
		t.Errorf("selected reference = %s, want AD (the paper's most popular block)", best)
	}
}

func TestHeatmapDecay(t *testing.T) {
	h := NewHeatmap()
	var s Signature
	for i := 0; i < 10; i++ {
		h.Record(s)
	}
	if h.Popularity(s) != 10*SubBlocks {
		t.Fatalf("popularity = %d", h.Popularity(s))
	}
	h.Decay()
	if h.Popularity(s) != 5*SubBlocks {
		t.Fatalf("after decay popularity = %d", h.Popularity(s))
	}
	h.Reset()
	if h.Popularity(s) != 0 {
		t.Fatal("reset did not clear the heatmap")
	}
}

func TestDistance(t *testing.T) {
	var a, b Signature
	if Distance(a, b) != 0 {
		t.Fatal("identical signatures should have distance 0")
	}
	b[0], b[7] = 1, 9
	if Distance(a, b) != 2 {
		t.Fatalf("distance = %d, want 2", Distance(a, b))
	}
	for i := range b {
		b[i] = byte(i + 1)
	}
	if Distance(a, b) != SubBlocks {
		t.Fatalf("distance = %d, want %d", Distance(a, b), SubBlocks)
	}
}

// distanceBytes is the byte-at-a-time definition Distance is held to.
func distanceBytes(a, b Signature) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// TestDistanceMatchesByteLoop holds the word-wise Distance to the byte
// loop: every pair of the lane values that stress the nonzero-byte
// count (nothing set, all low bits, only the top bit, everything) in
// every lane against every background, then random pairs.
func TestDistanceMatchesByteLoop(t *testing.T) {
	edge := []byte{0x00, 0x7f, 0x80, 0xff}
	for lane := 0; lane < SubBlocks; lane++ {
		for _, bg := range edge {
			for _, x := range edge {
				for _, y := range edge {
					var a, b Signature
					for i := range a {
						a[i], b[i] = bg, bg
					}
					a[lane], b[lane] = x, y
					if got, want := Distance(a, b), distanceBytes(a, b); got != want {
						t.Fatalf("Distance(%x, %x) = %d, byte loop says %d", a, b, got, want)
					}
					// The same lane pair against a background that
					// differs everywhere else.
					for i := range b {
						if i != lane {
							b[i] = ^bg
						}
					}
					if got, want := Distance(a, b), distanceBytes(a, b); got != want {
						t.Fatalf("Distance(%x, %x) = %d, byte loop says %d", a, b, got, want)
					}
				}
			}
		}
	}
	f := func(a, b Signature, same uint8) bool {
		// Random signatures almost never share a lane: force the lanes
		// picked by same to agree so every distance gets drawn.
		for i := range a {
			if same&(1<<i) != 0 {
				b[i] = a[i]
			}
		}
		return Distance(a, b) == distanceBytes(a, b) && Distance(b, a) == distanceBytes(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: similar blocks (few changed bytes) have small signature
// distance; the signature is deterministic.
func TestSignatureProperties(t *testing.T) {
	r := sim.NewRand(3)
	f := func(seed uint64, nChanges uint8) bool {
		b := make([]byte, blockdev.BlockSize)
		sim.NewRand(seed).Bytes(b)
		s1 := Compute(b)
		if s1 != Compute(b) {
			return false // not deterministic
		}
		// Change up to nChanges bytes; distance is bounded by the number
		// of sub-blocks touched.
		touched := map[int]bool{}
		for i := 0; i < int(nChanges); i++ {
			pos := r.Intn(len(b))
			b[pos] ^= 0xA5
			touched[pos/SubBlockSize] = true
		}
		return Distance(s1, Compute(b)) <= len(touched)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
