package blockdev_test

import (
	"bytes"
	"testing"

	"icash/internal/blockdev"
)

// FuzzPatch holds the patch codec to its contract for any block, basis
// and limit: DiffMask names exactly the chunks that differ and keeps
// the patch under the limit, and applying the patch to the basis gives
// the block back; or it refuses, and then the patch would have reached
// the limit. The basis repeats seed (zeros when empty); the block is
// the basis with the bytes of edits XORed in at at, at+stride, ...
func FuzzPatch(f *testing.F) {
	f.Add([]byte("basis"), []byte{}, uint16(0), uint16(1), int16(blockdev.PatchLimit))
	f.Add([]byte("basis"), []byte{1}, uint16(4095), uint16(1), int16(blockdev.PatchLimit))
	f.Add([]byte{7, 0, 9}, []byte("a run across two chunks"), uint16(60), uint16(1), int16(blockdev.PatchLimit))
	f.Add([]byte{}, bytes.Repeat([]byte{0xff}, 20), uint16(3), uint16(64), int16(blockdev.PatchLimit))
	f.Add([]byte{1, 2, 3, 4}, bytes.Repeat([]byte{0x5a}, 15), uint16(0), uint16(64), int16(blockdev.PatchLimit))
	f.Add([]byte{1, 2, 3, 4}, bytes.Repeat([]byte{0x5a}, 16), uint16(0), uint16(64), int16(blockdev.PatchLimit))
	f.Add([]byte("x"), []byte{1, 2}, uint16(100), uint16(2048), int16(74))
	f.Add([]byte("x"), []byte{1, 2}, uint16(100), uint16(2048), int16(9))
	f.Add([]byte("x"), []byte{1}, uint16(0), uint16(0), int16(-1))
	f.Fuzz(func(t *testing.T, seed, edits []byte, at, stride uint16, limit int16) {
		base := make([]byte, blockdev.BlockSize)
		for i := range base {
			if len(seed) > 0 {
				base[i] = seed[i%len(seed)] + byte(i/len(seed))
			}
		}
		b := bytes.Clone(base)
		for i, x := range edits {
			b[(int(at)+i*int(stride))%blockdev.BlockSize] ^= x
		}
		var want uint64
		for c := range blockdev.BlockSize / blockdev.PatchChunk {
			off := c * blockdev.PatchChunk
			if !bytes.Equal(b[off:off+blockdev.PatchChunk], base[off:off+blockdev.PatchChunk]) {
				want |= 1 << c
			}
		}
		mask, ok := blockdev.DiffMask(b, base, int(limit))
		if !ok {
			if n := blockdev.PatchLen(want); n < int(limit) {
				t.Fatalf("refused a %d-byte patch under limit %d", n, limit)
			}
			return
		}
		if mask != want {
			t.Fatalf("mask %#x, want %#x", mask, want)
		}
		p := blockdev.AppendPatch(nil, b, mask)
		if len(p) != blockdev.PatchLen(mask) || len(p) >= int(limit) {
			t.Fatalf("%d-byte patch for mask %#x under limit %d", len(p), mask, limit)
		}
		if !blockdev.ValidPatch(p) {
			t.Fatalf("malformed patch for mask %#x", mask)
		}
		out := make([]byte, blockdev.BlockSize)
		blockdev.ApplyPatch(out, base, p)
		if !bytes.Equal(out, b) {
			t.Fatalf("patched basis differs from the block at byte %d", firstDiff(out, b))
		}
	})
}

// TestValidPatch: ValidPatch accepts what AppendPatch makes and refuses
// a patch cut short, grown or missing its closing byte.
func TestValidPatch(t *testing.T) {
	base := fillBlock(1)
	b := nearBlock(base, 100, 100)
	mask, ok := blockdev.DiffMask(b, base, blockdev.PatchLimit)
	if !ok {
		t.Fatal("a 100-byte run was refused")
	}
	p := blockdev.AppendPatch(nil, b, mask)
	if !blockdev.ValidPatch(p) {
		t.Fatal("refused a patch AppendPatch made")
	}
	for name, bad := range map[string][]byte{
		"empty":     nil,
		"short":     p[:len(p)-1],
		"long":      append(bytes.Clone(p), 0),
		"unclosed":  append(bytes.Clone(p[:len(p)-1]), 1),
		"mask only": p[:8],
	} {
		if blockdev.ValidPatch(bad) {
			t.Errorf("%s: accepted", name)
		}
	}
}
