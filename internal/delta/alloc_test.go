package delta

import (
	"encoding/binary"
	"testing"

	"icash/internal/race"
	"icash/internal/sim"
)

// Alloc gates: the append-style APIs must be zero-allocation at steady
// state (caller-supplied buffers with sufficient capacity), and Size
// must allocate nothing ever. Run by the CI alloc-gate step; skipped
// under the race detector, whose instrumentation adds allocations.

func skipIfRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
}

func TestAllocGateAppendEncode(t *testing.T) {
	skipIfRace(t)
	target, ref := randomPair(21, 4096, 64)
	dst := make([]byte, 0, 8192)
	if got := testing.AllocsPerRun(100, func() {
		var ok bool
		dst, ok = AppendEncode(dst[:0], target, ref, 0)
		if !ok {
			t.Fatal("AppendEncode failed")
		}
	}); got != 0 {
		t.Fatalf("AppendEncode allocated %v objects/op, want 0", got)
	}
}

func TestAllocGateAppendDecode(t *testing.T) {
	skipIfRace(t)
	target, ref := randomPair(22, 4096, 64)
	d, ok := Encode(target, ref, 0)
	if !ok {
		t.Fatal("Encode failed")
	}
	dst := make([]byte, 0, 8192)
	if got := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = AppendDecode(dst[:0], ref, d)
		if err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("AppendDecode allocated %v objects/op, want 0", got)
	}
}

func TestAllocGateSize(t *testing.T) {
	skipIfRace(t)
	target, ref := randomPair(23, 4096, 64)
	if got := testing.AllocsPerRun(100, func() {
		if Size(target, ref) <= 0 {
			t.Fatal("Size returned nonsense")
		}
	}); got != 0 {
		t.Fatalf("Size allocated %v objects/op, want 0", got)
	}
}

// benchShapes are the three 4 KB inputs the write path sees: sparse is
// the oltp shape (2 % of the bytes changed, in a few runs), dense sits
// just under the 2 048-byte threshold, unrelated is fresh content that
// the threshold rejects (every mail write-through).
var benchShapes = []struct {
	name   string
	accept bool
	pair   func() (target, ref []byte)
}{
	{"sparse", true, func() ([]byte, []byte) { return runsPair(24, 4, 20) }},
	{"dense", true, func() ([]byte, []byte) { return runsPair(27, 60, 32) }},
	{"unrelated", false, unrelatedPair},
}

// unrelatedPair returns two independent random 4 KB blocks.
func unrelatedPair() (target, ref []byte) {
	target, ref = make([]byte, 4096), make([]byte, 4096)
	sim.NewRand(28).Bytes(target)
	sim.NewRand(29).Bytes(ref)
	return target, ref
}

// runsPair returns a 4 KB reference and a target that rewrites runs
// disjoint runs of runLen bytes in it, evenly spread.
func runsPair(seed uint64, runs, runLen int) (target, ref []byte) {
	ref = make([]byte, 4096)
	sim.NewRand(seed).Bytes(ref)
	target = append([]byte(nil), ref...)
	for k := 0; k < runs; k++ {
		pos := k*(4096/runs) + 5
		for i := pos; i < pos+runLen; i++ {
			target[i] = ^ref[i]
		}
	}
	return target, ref
}

const benchThreshold = 2048

func TestBenchShapes(t *testing.T) {
	for _, sh := range benchShapes {
		target, ref := sh.pair()
		d, ok := Encode(target, ref, benchThreshold)
		if ok != sh.accept {
			t.Errorf("%s: Encode ok = %v, want %v", sh.name, ok, sh.accept)
		}
		if sh.name == "dense" && len(d) < benchThreshold*9/10 {
			t.Errorf("dense: delta is %d bytes, want within 10%% of the %d-byte threshold", len(d), benchThreshold)
		}
	}
}

func BenchmarkAppendEncode(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			target, ref := sh.pair()
			dst := make([]byte, 0, benchThreshold+2*binary.MaxVarintLen64)
			b.ReportAllocs()
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = AppendEncode(dst[:0], target, ref, benchThreshold)
			}
			_ = dst
		})
	}
}

func BenchmarkAppendDecode(b *testing.B) {
	target, ref := randomPair(25, 4096, 64)
	d, _ := Encode(target, ref, 0)
	dst := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		dst, _ = AppendDecode(dst[:0], ref, d)
	}
	_ = dst
}

func BenchmarkSize(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			target, ref := sh.pair()
			b.ReportAllocs()
			b.SetBytes(4096)
			b.ResetTimer()
			var s int
			for i := 0; i < b.N; i++ {
				s = Size(target, ref)
			}
			_ = s
		})
	}
}
