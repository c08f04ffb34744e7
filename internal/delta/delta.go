// Package delta implements the high-speed delta compression I-CASH uses
// to represent an active block as a small patch against a reference
// block (paper §3, §4.3).
//
// Block storage gives us positional alignment for free: an associate
// block and its reference describe the same logical content, differing
// in scattered modified byte ranges (the paper cites measurements that
// only 5–20% of the bits in a block change on a typical write). The
// encoder therefore performs a single linear pass emitting alternating
// COPY (take bytes from the reference at the same offset) and ADD
// (literal bytes from the target) operations — no searching, no hashing,
// tens of microseconds of simulated CPU per 4 KB block.
//
// Wire format (all integers are unsigned varints):
//
//	magic 0xD5, version 1, targetLen
//	repeat until targetLen bytes produced:
//	    copyLen          — bytes taken from reference at current offset
//	    addLen, addLen literal bytes — bytes taken from the delta itself
//
// A delta for identical blocks is just the header plus one COPY, a few
// bytes; a delta for unrelated blocks degenerates to header + one ADD of
// the whole block, which callers reject via the maxSize bound.
//
// The allocating entry points (Encode, Decode) are thin wrappers over
// append-style workers (AppendEncode, AppendDecode) so hot paths can
// reuse caller-owned buffers and run allocation-free; Size is a true
// counting pass sharing the encoder's segmentation, never materializing
// the delta.
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

const (
	magic   = 0xD5
	version = 1
	// headerSize is magic + version; the varint target length follows.
	headerSize = 2

	// minGap is the shortest run of equal bytes worth switching from ADD
	// back to COPY. A COPY/ADD boundary costs ~2 varint bytes, so gaps
	// shorter than this are cheaper left inside the literal.
	minGap = 4

	// maxDecodePrealloc caps how much Decode pre-allocates on the
	// strength of the delta's own (untrusted) target-length varint:
	// 4× the 4 KB block size this repo traffics in. Larger targets
	// still decode — the output simply grows as ops are validated —
	// but a corrupt length can no longer demand gigabytes up front.
	maxDecodePrealloc = 4 * 4096
)

// Errors returned by Decode.
var (
	ErrCorrupt  = errors.New("delta: corrupt delta stream")
	ErrShortRef = errors.New("delta: reference shorter than delta requires")
)

// nextOps measures the next COPY/ADD pair of the canonical segmentation
// starting at offset i. It is the single source of truth shared by
// AppendEncode and Size: both walk exactly this sequence of ops, so the
// counted size and the materialized bytes cannot diverge.
//
// The two long runs — equal bytes for the COPY, unequal bytes for the
// ADD — are measured eight bytes at a time (matchLen, diffLen); the
// rule deciding whether a short equal gap ends the ADD stays byte-wise.
//
// n is len(target); limit is min(len(ref), n).
func nextOps(target, ref []byte, i, n, limit int) (copyLen, addLen, next int) {
	// Measure the COPY run: equal bytes at the same offset.
	start := i
	i += matchLen(target[i:limit], ref[i:limit])
	copyLen = i - start
	// Measure the ADD run: unequal bytes, absorbing short equal gaps.
	addStart := i
	for i < n {
		if i >= limit {
			i = n
			break
		}
		i += diffLen(target[i:limit], ref[i:limit])
		if i >= limit {
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

const (
	lowBytes  = 0x0101010101010101
	highBytes = 0x8080808080808080
)

// diff64 XORs the 8 bytes of a and b at offset i, loaded little-endian:
// byte i+k of the slices lands in bits 8k..8k+7, so the lowest set bit
// belongs to the first differing byte. The full slice expression lets
// the compiler drop the bounds checks inside the load.
func diff64(a, b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(a[i:i+8:i+8]) ^ binary.LittleEndian.Uint64(b[i:i+8:i+8])
}

// matchLen returns the length of the common prefix of a and b, which
// must be the same length.
func matchLen(a, b []byte) int {
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		p, q := a[i:i+32:i+32], b[i:i+32:i+32]
		if diff64(p, q, 0)|diff64(p, q, 8)|diff64(p, q, 16)|diff64(p, q, 24) != 0 {
			break // the word loop below locates the byte
		}
	}
	for ; i+8 <= n; i += 8 {
		if x := diff64(a, b, i); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// diffLen returns the offset of the first position at which a and b,
// which must be the same length, hold the same byte (len(a) if none).
// (x-lowBytes) &^ x & highBytes has bit 8k+7 set exactly when byte k of
// x is zero or a lower byte borrowed into it, and a borrow starts only
// at a zero byte: the lowest set bit is always the first zero byte.
func diffLen(a, b []byte) int {
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		x := diff64(a, b, i)
		if z := (x - lowBytes) &^ x & highBytes; z != 0 {
			return i + bits.TrailingZeros64(z)>>3
		}
	}
	for i < n && a[i] != b[i] {
		i++
	}
	return i
}

// AppendEncode appends the delta that rebuilds target from ref to dst
// and returns the extended slice. If the encoded delta (excluding dst's
// prior contents) would exceed maxSize, encoding aborts and ok is false
// with dst returned at its original length — the caller should then
// store the block verbatim instead (the paper uses a 2048-byte
// threshold, §5.3). maxSize <= 0 means unbounded.
//
// target and ref may have different lengths; bytes beyond len(ref) are
// always literals. With sufficient capacity in dst, AppendEncode
// performs no allocations.
func AppendEncode(dst, target, ref []byte, maxSize int) (d []byte, ok bool) {
	base := len(dst)
	out := append(dst, magic, version)
	out = binary.AppendUvarint(out, uint64(len(target)))

	n := len(target)
	limit := len(ref)
	if limit > n {
		limit = n
	}
	i := 0
	for i < n {
		copyLen, addLen, next := nextOps(target, ref, i, n, limit)
		addStart := next - addLen
		i = next
		out = binary.AppendUvarint(out, uint64(copyLen))
		out = binary.AppendUvarint(out, uint64(addLen))
		// Reject before copying a literal that cannot fit: unrelated
		// content fails here without touching (or growing) dst further.
		if maxSize > 0 && len(out)-base+addLen > maxSize {
			return dst[:base], false
		}
		out = append(out, target[addStart:addStart+addLen]...)
	}
	if maxSize > 0 && len(out)-base > maxSize {
		return dst[:base], false
	}
	return out, true
}

// Encode produces the delta that rebuilds target from ref. If the
// encoded size would exceed maxSize, encoding aborts and ok is false —
// the caller should then store the block verbatim instead. It is a
// thin allocating wrapper around AppendEncode.
func Encode(target, ref []byte, maxSize int) (d []byte, ok bool) {
	bound := maxSize
	if bound <= 0 {
		bound = len(target) + len(target)/2 + 16
	}
	out, ok := AppendEncode(make([]byte, 0, min(bound, len(target)/4+16)), target, ref, maxSize)
	if !ok {
		return nil, false
	}
	return out, true
}

// AppendDecode appends the target block rebuilt from ref and a delta
// produced by Encode to dst and returns the extended slice. On error
// dst is returned at its original length. With sufficient capacity in
// dst, AppendDecode performs no allocations.
func AppendDecode(dst, ref, d []byte) ([]byte, error) {
	base := len(dst)
	if len(d) < headerSize || d[0] != magic || d[1] != version {
		return dst[:base], fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	p := d[headerSize:]
	targetLen, k := binary.Uvarint(p)
	if k <= 0 {
		return dst[:base], fmt.Errorf("%w: bad length", ErrCorrupt)
	}
	p = p[k:]
	out := dst
	for uint64(len(out)-base) < targetLen {
		copyLen, k := binary.Uvarint(p)
		if k <= 0 {
			return dst[:base], fmt.Errorf("%w: bad copy length", ErrCorrupt)
		}
		p = p[k:]
		addLen, k := binary.Uvarint(p)
		if k <= 0 {
			return dst[:base], fmt.Errorf("%w: bad add length", ErrCorrupt)
		}
		p = p[k:]
		pos := len(out) - base
		if copyLen > 0 {
			end := pos + int(copyLen)
			if end < pos || end > len(ref) || uint64(end) > targetLen {
				return dst[:base], ErrShortRef
			}
			out = append(out, ref[pos:end]...)
			pos = end
		}
		if addLen > 0 {
			if uint64(addLen) > uint64(len(p)) || uint64(pos)+addLen > targetLen {
				return dst[:base], fmt.Errorf("%w: literal overruns", ErrCorrupt)
			}
			out = append(out, p[:addLen]...)
			p = p[addLen:]
		}
		if copyLen == 0 && addLen == 0 && uint64(len(out)-base) < targetLen {
			return dst[:base], fmt.Errorf("%w: zero-progress op", ErrCorrupt)
		}
	}
	if len(p) != 0 {
		return dst[:base], fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return out, nil
}

// Decode rebuilds the target block from ref and a delta produced by
// Encode. It is a thin allocating wrapper around AppendDecode; the
// initial allocation is clamped to maxDecodePrealloc so a corrupt
// length varint cannot trigger an over-allocation before any op has
// been validated.
func Decode(ref, d []byte) ([]byte, error) {
	capHint := 0
	if n, err := TargetLen(d); err == nil && n > 0 {
		capHint = min(n, maxDecodePrealloc)
	}
	return AppendDecode(make([]byte, 0, capHint), ref, d)
}

// Size returns the encoded size of the delta between target and ref
// without materializing it (same segmentation as Encode via nextOps,
// counting only). Size(t, r) == len(d) for d, _ := Encode(t, r, 0),
// and Size allocates nothing.
func Size(target, ref []byte) int {
	n := len(target)
	size := headerSize + uvarintLen(uint64(n))
	limit := len(ref)
	if limit > n {
		limit = n
	}
	for i := 0; i < n; {
		var copyLen, addLen int
		copyLen, addLen, i = nextOps(target, ref, i, n, limit)
		size += uvarintLen(uint64(copyLen)) + uvarintLen(uint64(addLen)) + addLen
	}
	return size
}

// TargetLen reports the length of the block a delta rebuilds, without
// decoding it.
func TargetLen(d []byte) (int, error) {
	if len(d) < headerSize || d[0] != magic || d[1] != version {
		return 0, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	n, k := binary.Uvarint(d[headerSize:])
	if k <= 0 {
		return 0, fmt.Errorf("%w: bad length", ErrCorrupt)
	}
	return int(n), nil
}

// uvarintLen reports how many bytes binary.AppendUvarint emits for x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
