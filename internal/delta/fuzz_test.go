package delta

import (
	"bytes"
	"testing"
)

// FuzzDeltaRoundTrip drives the encoder/decoder pair with arbitrary
// target/reference pairs and size bounds: every successful Encode must
// Decode back to the exact target within the bound, and Decode must
// never panic on arbitrary input (the raw fuzz bytes double as a
// hostile delta stream).
func FuzzDeltaRoundTrip(f *testing.F) {
	same := bytes.Repeat([]byte{0xAB}, 4096)
	f.Add([]byte("hello, block world"), []byte("hello, delta world"), 0)
	f.Add(same, same, 2048)
	f.Add([]byte{}, []byte("reference only"), 64)
	f.Add([]byte("target only, no reference"), []byte{}, 0)
	f.Add([]byte{0xD5, 0x01, 0x04, 0x00, 0x04, 1, 2, 3, 4}, []byte{9, 9, 9, 9}, 0)
	// Hostile stream advertising a ~2^62-byte target with no ops: the
	// decoder must clamp its pre-allocation instead of trusting the
	// varint (a real over-allocation bug before the clamp existed).
	f.Add([]byte{0xD5, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},
		[]byte{}, 0)
	f.Fuzz(func(t *testing.T, target, ref []byte, maxSize int) {
		// Bound the work per input; real callers encode 4 KB blocks.
		if len(target) > 2*4096 {
			target = target[:2*4096]
		}
		if len(ref) > 2*4096 {
			ref = ref[:2*4096]
		}
		if maxSize > 1<<20 {
			maxSize = 1 << 20
		}

		if want, ok := Encode(target, ref, 0); ok && Size(target, ref) != len(want) {
			t.Fatalf("Size = %d disagrees with len(Encode) = %d", Size(target, ref), len(want))
		}

		d, ok := Encode(target, ref, maxSize)
		if ok {
			if maxSize > 0 && len(d) > maxSize {
				t.Fatalf("Encode exceeded maxSize %d: got %d bytes", maxSize, len(d))
			}
			n, err := TargetLen(d)
			if err != nil || n != len(target) {
				t.Fatalf("TargetLen = %d, %v; want %d", n, err, len(target))
			}
			got, err := Decode(ref, d)
			if err != nil {
				t.Fatalf("Decode of own encoding failed: %v", err)
			}
			if !bytes.Equal(got, target) {
				t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(target))
			}
		}

		// The fuzz input itself as a hostile delta stream: errors are
		// fine, panics and hangs are not. A successful decode must honour
		// the declared target length.
		if out, err := Decode(ref, target); err == nil {
			if n, err2 := TargetLen(target); err2 != nil || n != len(out) {
				t.Fatalf("hostile decode length %d disagrees with TargetLen %d (%v)", len(out), n, err2)
			}
		}
	})
}

// FuzzSegmentation holds the word-at-a-time nextOps to the byte-wise
// scan it replaced (refNextOps), op for op, on arbitrary pairs, and
// checks the counting pass against the materialized delta.
func FuzzSegmentation(f *testing.F) {
	f.Add([]byte("hello, block world"), []byte("hello, delta world"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("1234567"), []byte("123456"))
	f.Fuzz(func(t *testing.T, target, ref []byte) {
		if len(target) > 2*4096 {
			target = target[:2*4096]
		}
		if len(ref) > 2*4096 {
			ref = ref[:2*4096]
		}
		if msg := segmentationMismatch(target, ref); msg != "" {
			t.Fatal(msg)
		}
		d, ok := Encode(target, ref, 0)
		if !ok {
			t.Fatal("unbounded Encode refused")
		}
		if got := Size(target, ref); got != len(d) {
			t.Fatalf("Size = %d disagrees with len(Encode) = %d", got, len(d))
		}
	})
}
