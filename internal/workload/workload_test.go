package workload

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"icash/internal/blockdev"
	"icash/internal/race"
	"icash/internal/sim"
)

func TestTable4Profiles(t *testing.T) {
	profiles := Table4()
	if len(profiles) != 8 {
		t.Fatalf("Table 4 has 8 rows, got %d", len(profiles))
	}
	names := map[string]bool{}
	for _, p := range profiles {
		if names[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		if p.DataBytes <= 0 || p.PaperOps() <= 0 {
			t.Errorf("%s: sizes must be positive", p.Name)
		}
		if p.ReadFraction() < 0 || p.ReadFraction() > 1 {
			t.Errorf("%s: read fraction %f", p.Name, p.ReadFraction())
		}
		if p.MutFrac <= 0 || p.MutFrac > 0.5 {
			t.Errorf("%s: MutFrac %f outside the paper's content-locality range", p.Name, p.MutFrac)
		}
	}
	// Spot checks against the paper's Table 4.
	sb, _ := ByName("SysBench")
	if sb.PaperReads != 619_000 || sb.PaperWrites != 236_000 || sb.DataBytes != 960<<20 {
		t.Errorf("SysBench row diverges from Table 4: %+v", sb)
	}
	ru, _ := ByName("RUBiS")
	if f := ru.ReadFraction(); f < 0.9 {
		t.Errorf("RUBiS must be >90%% reads (paper), got %f", f)
	}
	sfs, _ := ByName("SPEC-sfs")
	if f := sfs.ReadFraction(); f > 0.2 {
		t.Errorf("SPEC-sfs must be write-intensive, got read fraction %f", f)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName on unknown benchmark")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	opts := Options{Scale: 1.0 / 512, Seed: 7}
	g1 := NewGenerator(SysBench(), opts)
	g2 := NewGenerator(SysBench(), opts)
	buf1 := make([]byte, blockdev.BlockSize)
	buf2 := make([]byte, blockdev.BlockSize)
	for {
		r1, ok1 := g1.Next()
		r2, ok2 := g2.Next()
		if ok1 != ok2 || r1 != r2 {
			t.Fatal("same seed produced different streams")
		}
		if !ok1 {
			break
		}
		if r1.Write {
			g1.WriteContent(r1.LBA, buf1)
			g2.WriteContent(r2.LBA, buf2)
			if !bytes.Equal(buf1, buf2) {
				t.Fatal("same seed produced different contents")
			}
		}
	}
}

func TestGeneratorResetReproduces(t *testing.T) {
	g := NewGenerator(TPCC(), Options{Scale: 1.0 / 512, Seed: 9})
	var first []Request
	for i := 0; i < 100; i++ {
		r, _ := g.Next()
		first = append(first, r)
	}
	g.Reset()
	for i := 0; i < 100; i++ {
		r, _ := g.Next()
		if r != first[i] {
			t.Fatalf("request %d differs after Reset", i)
		}
	}
}

func TestStreamMatchesProfile(t *testing.T) {
	for _, p := range []Profile{SysBench(), TPCC(), RUBiS(), SPECsfs()} {
		g := NewGenerator(p, Options{Scale: 1.0 / 128, Seed: 3})
		var reads, writes, readBlocks, writeBlocks int64
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			if r.Blocks < 1 || r.Blocks > 64 {
				t.Fatalf("%s: request length %d", p.Name, r.Blocks)
			}
			if r.LBA < 0 || r.LBA+int64(r.Blocks) > g.DataBlocks() {
				t.Fatalf("%s: request out of range", p.Name)
			}
			if r.Write {
				writes++
				writeBlocks += int64(r.Blocks)
			} else {
				reads++
				readBlocks += int64(r.Blocks)
			}
		}
		gotFrac := float64(reads) / float64(reads+writes)
		if math.Abs(gotFrac-p.ReadFraction()) > 0.05 {
			t.Errorf("%s: read fraction %f, profile %f", p.Name, gotFrac, p.ReadFraction())
		}
		if reads > 100 {
			avg := float64(readBlocks) / float64(reads) * blockdev.BlockSize
			if avg < float64(p.AvgReadBytes)*0.5 || avg > float64(p.AvgReadBytes)*2 {
				t.Errorf("%s: avg read %f vs profile %d", p.Name, avg, p.AvgReadBytes)
			}
		}
	}
}

func TestContentLocality(t *testing.T) {
	p := SysBench()
	g := NewGenerator(p, Options{Scale: 1.0 / 256, Seed: 1})
	a := make([]byte, blockdev.BlockSize)
	b := make([]byte, blockdev.BlockSize)

	// A rewrite changes roughly MutFrac of the bytes.
	lba := int64(10)
	g.Fill(lba, a)
	g.WriteContent(lba, b)
	changed := 0
	for i := range a {
		if a[i] != b[i] {
			changed++
		}
	}
	frac := float64(changed) / float64(len(a))
	if frac < p.MutFrac/4 || frac > p.MutFrac*4 {
		t.Fatalf("rewrite changed %f of bytes, MutFrac %f", frac, p.MutFrac)
	}

	// Successive writes keep deltas bounded (stable hot fields).
	g.WriteContent(lba, a)
	g.WriteContent(lba, a)
	g.WriteContent(lba, a)
	g.Fill(lba, b) // version-0 content
	changed = 0
	for i := range a {
		if a[i] != b[i] {
			changed++
		}
	}
	if float64(changed)/float64(len(a)) > 4*p.MutFrac {
		t.Fatalf("content diverged after repeated writes: %d changed bytes", changed)
	}
}

func TestCurrentContentTracksWrites(t *testing.T) {
	g := NewGenerator(SysBench(), Options{Scale: 1.0 / 256, Seed: 2})
	w := make([]byte, blockdev.BlockSize)
	c := make([]byte, blockdev.BlockSize)
	for i := 0; i < 5; i++ {
		g.WriteContent(99, w)
		g.CurrentContent(99, c)
		if !bytes.Equal(w, c) {
			t.Fatalf("CurrentContent diverges at version %d", i+1)
		}
	}
}

func TestVMImagesNearIdentical(t *testing.T) {
	p := TPCC5VM()
	g := NewGenerator(p, Options{Scale: 1.0 / 256, Seed: 4})
	img := g.ImageBlocks()
	if img*5 != g.DataBlocks() {
		t.Fatalf("5 VMs: image %d × 5 != data %d", img, g.DataBlocks())
	}
	a := make([]byte, blockdev.BlockSize)
	b := make([]byte, blockdev.BlockSize)
	for off := int64(0); off < 20; off++ {
		g.Fill(off, a)     // VM 0
		g.Fill(img+off, b) // VM 1, same offset
		changed := 0
		for i := range a {
			if a[i] != b[i] {
				changed++
			}
		}
		frac := float64(changed) / float64(len(a))
		if frac > 5*p.VMDiverge+0.01 {
			t.Fatalf("offset %d: VM images diverge by %f", off, frac)
		}
	}
}

func TestFreshWritesHappen(t *testing.T) {
	p := SPECsfs() // FreshWriteFrac 0.6
	g := NewGenerator(p, Options{Scale: 1.0 / 1024, Seed: 5})
	fresh := 0
	const trials = 400
	for v := uint32(1); v <= trials; v++ {
		if g.isFresh(123, v) {
			fresh++
		}
	}
	frac := float64(fresh) / trials
	if math.Abs(frac-p.FreshWriteFrac) > 0.1 {
		t.Fatalf("fresh fraction %f, profile %f", frac, p.FreshWriteFrac)
	}
	// A fresh write replaces content wholesale.
	g2 := NewGenerator(p, Options{Scale: 1.0 / 1024, Seed: 5})
	old := make([]byte, blockdev.BlockSize)
	cur := make([]byte, blockdev.BlockSize)
	g2.Fill(7, old)
	sawFresh := false
	for i := 0; i < 50 && !sawFresh; i++ {
		g2.WriteContent(7, cur)
		changed := 0
		for j := range cur {
			if cur[j] != old[j] {
				changed++
			}
		}
		if float64(changed)/float64(len(cur)) > 0.9 {
			sawFresh = true
		}
		copy(old, cur)
	}
	if !sawFresh {
		t.Fatal("no fresh write observed in 50 writes at FreshWriteFrac 0.6")
	}
}

func TestByteSize(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		2 << 10:   "2KB",
		960 << 20: "960MB",
		10 << 30:  "10.0GB",
	}
	for n, want := range cases {
		if got := ByteSize(n); got != want {
			t.Errorf("ByteSize(%d) = %q, want %q", n, got, want)
		}
	}
}

// Property: Fill is a pure function of (seed, lba).
func TestFillPureProperty(t *testing.T) {
	g := NewGenerator(RUBiS(), Options{Scale: 1.0 / 512, Seed: 8})
	f := func(raw uint32) bool {
		lba := int64(raw) % g.DataBlocks()
		a := make([]byte, blockdev.BlockSize)
		b := make([]byte, blockdev.BlockSize)
		g.Fill(lba, a)
		g.Fill(lba, b)
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refMutate is the per-byte-modulo loop mutate replaced, kept as the
// reference for TestMutateMatchesReference.
func refMutate(buf []byte, posSeed, valSeed uint64, frac float64) {
	if frac <= 0 {
		return
	}
	n := int(frac * float64(len(buf)))
	if n <= 0 {
		n = 1
	}
	pr := sim.NewRand(posSeed)
	vr := sim.NewRand(valSeed)
	for n > 0 {
		run := 16 + pr.Intn(49)
		if run > n {
			run = n
		}
		pos := pr.Intn(len(buf))
		for i := 0; i < run; i++ {
			buf[(pos+i)%len(buf)] = byte(vr.Uint64())
		}
		n -= run
	}
}

// TestMutateMatchesReference: same positions, same values, same draw
// order as the reference loop — including runs that wrap past the end
// of the buffer, which the buffers shorter than a run force.
func TestMutateMatchesReference(t *testing.T) {
	for _, size := range []int{1, 5, 16, 40, 64, 100, 4096} {
		for seed := uint64(0); seed < 200; seed++ {
			for _, frac := range []float64{0, 0.0001, 0.02, 0.3, 1} {
				got := make([]byte, size)
				want := make([]byte, size)
				mutate(got, seed, seed*7+1, frac)
				refMutate(want, seed, seed*7+1, frac)
				if !bytes.Equal(got, want) {
					t.Fatalf("size %d seed %d frac %v: mutate diverges from the reference loop", size, seed, frac)
				}
			}
		}
	}
}

// TestAllocGateContent: once a block's family base is cached and its
// version entry exists, producing its content allocates nothing. Every
// branch of contentAt seeds its own short-lived RNGs (a fresh rewrite,
// the per-block personalization, VM divergence, two mutate calls per
// written version), and each of those used to be a heap object: seven
// per block on a multi-VM profile.
func TestAllocGateContent(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, p := range []Profile{SysBench(), LoadSim(), TPCC5VM()} {
		g := NewGenerator(p, Options{Scale: 1.0 / 256, Seed: 3})
		buf := make([]byte, blockdev.BlockSize)
		lbas := []int64{0, 7, g.DataBlocks() / 2, g.DataBlocks() - 1}
		op := func() {
			for _, lba := range lbas {
				g.Fill(lba, buf)
				g.WriteContent(lba, buf)
			}
		}
		op() // cache the family bases, create the version entries
		if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
			t.Errorf("%s: %v allocations per %d Fill+WriteContent pairs, want 0", p.Name, allocs, len(lbas))
		}
	}
}
