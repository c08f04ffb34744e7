package delta

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"icash/internal/sim"
)

// refNextOps is the byte-at-a-time scan nextOps replaced, kept verbatim
// as the reference the word-at-a-time scan must match op for op.
func refNextOps(target, ref []byte, i, n, limit int) (copyLen, addLen, next int) {
	// Measure the COPY run: equal bytes at the same offset.
	start := i
	for i < limit && target[i] == ref[i] {
		i++
	}
	copyLen = i - start
	// Measure the ADD run: unequal bytes, absorbing short equal gaps.
	addStart := i
	for i < n {
		if i >= limit {
			i = n
			break
		}
		if target[i] != ref[i] {
			i++
			continue
		}
		// Equal byte: only end the ADD if the equal run is long
		// enough to pay for an op boundary.
		g := i
		for g < limit && g-i < minGap && target[g] == ref[g] {
			g++
		}
		if g-i >= minGap || g == n {
			break
		}
		i = g + 1 // absorb the short gap into the literal
	}
	return copyLen, i - addStart, i
}

// segmentationMismatch walks both scans over the pair and describes the
// first op on which they disagree ("" when they agree throughout).
func segmentationMismatch(target, ref []byte) string {
	n := len(target)
	limit := min(len(ref), n)
	for i := 0; i < n; {
		c, a, next := nextOps(target, ref, i, n, limit)
		wc, wa, wnext := refNextOps(target, ref, i, n, limit)
		if c != wc || a != wa || next != wnext {
			return fmt.Sprintf("at offset %d: nextOps = (copy %d, add %d, next %d), reference scan = (copy %d, add %d, next %d)",
				i, c, a, next, wc, wa, wnext)
		}
		if next <= i {
			return fmt.Sprintf("at offset %d: no progress", i)
		}
		i = next
	}
	return ""
}

// differAt returns a pseudo-random block of n bytes and a copy of it
// that differs at exactly the given offsets.
func differAt(n int, offsets ...int) (target, ref []byte) {
	ref = make([]byte, n)
	sim.NewRand(uint64(n) + 99).Bytes(ref)
	target = append([]byte(nil), ref...)
	for _, o := range offsets {
		target[o] ^= 0xFF
	}
	return target, ref
}

func TestSegmentationEdgeCases(t *testing.T) {
	type pair struct {
		name        string
		target, ref []byte
	}
	var cases []pair
	add := func(name string, target, ref []byte) {
		cases = append(cases, pair{name, target, ref})
	}

	// A single difference on either side of every word boundary the
	// 8- and 32-byte loops step over.
	for _, off := range []int{0, 7, 8, 9, 31, 32, 33, 63, 64, 65} {
		tg, rf := differAt(128, off)
		add(fmt.Sprintf("diff@%d", off), tg, rf)
	}
	// An equal gap of exactly minGap-1 (absorbed) and minGap (ends the
	// ADD), placed so the gap straddles each word boundary position.
	for _, gap := range []int{minGap - 1, minGap} {
		for first := 2; first <= 9; first++ {
			tg, rf := differAt(64, first, first+gap+1)
			add(fmt.Sprintf("gap%d@%d", gap, first+1), tg, rf)
		}
	}
	// A long ADD run ending mid-word, and one ending on a word boundary.
	for _, end := range []int{13, 16, 40} {
		offs := make([]int, 0, end-3)
		for o := 3; o < end; o++ {
			offs = append(offs, o)
		}
		tg, rf := differAt(96, offs...)
		add(fmt.Sprintf("run3-%d", end), tg, rf)
	}
	// ref shorter than target, limit in the middle of a word: the tail
	// is always literal, whether the prefix matches or not.
	for _, limit := range []int{0, 1, 5, 8, 11, 32, 35} {
		tg, rf := differAt(48)
		add(fmt.Sprintf("limit%d/equal", limit), tg, rf[:limit])
		if limit > 2 {
			tg, rf = differAt(48, limit-2)
			add(fmt.Sprintf("limit%d/diff-before", limit), tg, rf[:limit])
			tg, rf = differAt(48, limit-1)
			add(fmt.Sprintf("limit%d/diff-last", limit), tg, rf[:limit])
		}
	}
	// ref longer than target.
	tg, rf := differAt(40, 17)
	add("ref-longer", tg[:29], rf)
	// Empty and sub-word inputs, equal and fully different.
	add("empty", nil, nil)
	add("empty-target", nil, []byte("reference"))
	for n := 1; n <= 7; n++ {
		tg, rf := differAt(n)
		add(fmt.Sprintf("len%d/equal", n), tg, rf)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		tg, rf = differAt(n, all...)
		add(fmt.Sprintf("len%d/different", n), tg, rf)
		tg, rf = differAt(n, n-1)
		add(fmt.Sprintf("len%d/last-differs", n), tg, rf)
	}
	// A lone equal byte at n-1 after a literal: g == n ends the ADD
	// even though the gap is shorter than minGap.
	for _, n := range []int{2, 8, 9, 16, 17, 33} {
		all := make([]int, n-1)
		for i := range all {
			all[i] = i
		}
		tg, rf := differAt(n, all...)
		add(fmt.Sprintf("lone-equal-tail/%d", n), tg, rf)
	}
	// XOR bytes that borrow in the zero-byte test: 0x01 and 0x80 next
	// to the first equal byte must not move it.
	borrowT := []byte{1, 2, 3, 0x11, 0x10, 0x91, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	borrowR := []byte{9, 9, 9, 0x10, 0x10, 0x11, 7, 8, 9, 10, 11, 12, 13, 14, 15, 99}
	add("borrow", borrowT, borrowR)

	for _, tc := range cases {
		if msg := segmentationMismatch(tc.target, tc.ref); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
		d, ok := Encode(tc.target, tc.ref, 0)
		if !ok {
			t.Errorf("%s: unbounded Encode refused", tc.name)
			continue
		}
		if got := Size(tc.target, tc.ref); got != len(d) {
			t.Errorf("%s: Size = %d, len(Encode) = %d", tc.name, got, len(d))
		}
		if got, err := Decode(tc.ref, d); err != nil || !bytes.Equal(got, tc.target) {
			t.Errorf("%s: round trip failed (err %v)", tc.name, err)
		}
	}
}

// TestSegmentationRandom sweeps the shapes the simulator produces —
// sparse, dense and unrelated 4 KB pairs — plus odd lengths.
func TestSegmentationRandom(t *testing.T) {
	r := sim.NewRand(77)
	for i := 0; i < 400; i++ {
		n := 4096
		if i%4 == 3 {
			n = r.Intn(300) + 1
		}
		target, ref := randomPair(uint64(i), n, r.Intn(2*n))
		if i%5 == 4 {
			ref = ref[:r.Intn(n+1)]
		}
		if msg := segmentationMismatch(target, ref); msg != "" {
			t.Fatalf("pair %d (n=%d, len(ref)=%d): %s", i, n, len(ref), msg)
		}
	}
}

// TestAppendEncodeRejectsBeforeCopy: a rejected encode must not grow a
// threshold-sized destination, and must leave what the caller already
// had in it alone.
func TestAppendEncodeRejectsBeforeCopy(t *testing.T) {
	const maxSize = benchThreshold
	target, ref := unrelatedPair()

	prefix := []byte("kept")
	dst := make([]byte, len(prefix), len(prefix)+maxSize+2*binary.MaxVarintLen64)
	copy(dst, prefix)
	out, ok := AppendEncode(dst, target, ref, maxSize)
	if ok {
		t.Fatal("unrelated content encoded under the threshold")
	}
	if len(out) != len(prefix) || cap(out) != cap(dst) || &out[0] != &dst[0] || !bytes.Equal(out, prefix) {
		t.Fatalf("rejected encode returned len %d cap %d %q, want the caller's dst (len %d cap %d %q)",
			len(out), cap(out), out, len(dst), cap(dst), prefix)
	}

	skipIfRace(t)
	buf := make([]byte, 0, maxSize+2*binary.MaxVarintLen64)
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := AppendEncode(buf, target, ref, maxSize); ok {
			t.Fatal("unrelated content encoded under the threshold")
		}
	}); got != 0 {
		t.Fatalf("rejecting AppendEncode allocated %v objects/op, want 0", got)
	}
}
