package icash

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"icash/internal/core"
	"icash/internal/sim"
)

func newTestArray(t *testing.T) *Array {
	t.Helper()
	arr, err := New(Config{DataBlocks: 2048, SSDBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func pattern(tag byte) []byte {
	b := make([]byte, BlockSize)
	r := sim.NewRand(uint64(tag) + 1)
	r.Bytes(b)
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero DataBlocks must fail")
	}
	arr, err := New(Config{DataBlocks: 512})
	if err != nil {
		t.Fatal(err)
	}
	if arr.Blocks() != 512 {
		t.Fatalf("Blocks = %d", arr.Blocks())
	}
}

func TestReadYourWrites(t *testing.T) {
	arr := newTestArray(t)
	model := map[int64][]byte{}
	r := sim.NewRand(1)
	buf := make([]byte, BlockSize)
	for i := 0; i < 5000; i++ {
		lba := r.Int63n(arr.Blocks())
		if r.Float64() < 0.5 {
			content := pattern(byte(lba % 17))
			if _, err := arr.Write(lba, content); err != nil {
				t.Fatal(err)
			}
			model[lba] = content
		} else {
			if _, err := arr.Read(lba, buf); err != nil {
				t.Fatal(err)
			}
			want := model[lba]
			if want == nil {
				want = make([]byte, BlockSize)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("op %d lba %d mismatch", i, lba)
			}
		}
	}
	if arr.SimulatedTime() <= 0 {
		t.Error("clock did not advance")
	}
	if arr.Stats().WriteDelta == 0 {
		t.Error("expected delta-compressed writes")
	}
	if arr.KindCounts().Total() == 0 {
		t.Error("no tracked blocks")
	}
}

func TestCrashRecovery(t *testing.T) {
	arr := newTestArray(t)
	model := map[int64][]byte{}
	for lba := int64(0); lba < 300; lba++ {
		c := pattern(byte(lba % 11))
		if _, err := arr.Write(lba, c); err != nil {
			t.Fatal(err)
		}
		model[lba] = c
	}
	if err := arr.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := arr.Crash()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	for lba, want := range model {
		if _, err := rec.Read(lba, buf); err != nil {
			t.Fatalf("post-crash read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("post-crash lba %d mismatch", lba)
		}
	}
}

func TestTuneHook(t *testing.T) {
	var seen core.Config
	arr, err := New(Config{
		DataBlocks: 512,
		Tune: func(c *core.Config) {
			c.DeltaThreshold = 1024
			seen = *c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if arr.Controller().Config().DeltaThreshold != 1024 {
		t.Fatal("Tune override not applied")
	}
	if seen.VirtualBlocks != 512 {
		t.Fatal("Tune saw wrong defaults")
	}
}

func TestLatencyAsymmetry(t *testing.T) {
	// The architectural claim: once references exist, writes complete at
	// RAM speed while a pure read-modify cycle still touches devices.
	arr := newTestArray(t)
	base := pattern(1)
	for lba := int64(0); lba < 512; lba++ {
		arr.Write(lba, base) // similar content: references + associates form
	}
	// Rewrite with small changes: deltas.
	mod := append([]byte(nil), base...)
	mod[100] ^= 0xFF
	var wsum time.Duration
	for lba := int64(0); lba < 256; lba++ {
		d, err := arr.Write(lba, mod)
		if err != nil {
			t.Fatal(err)
		}
		wsum += d
	}
	if avg := wsum / 256; avg > 100*time.Microsecond {
		t.Fatalf("steady-state delta writes average %v, expected RAM-speed", avg)
	}
	st := arr.Stats()
	if st.WriteDelta == 0 {
		t.Fatal("no delta writes recorded")
	}
}

// Property: arbitrary op sequences preserve read-your-writes.
func TestArrayShadowProperty(t *testing.T) {
	f := func(seed uint64) bool {
		arr, err := New(Config{DataBlocks: 256, SSDBlocks: 64})
		if err != nil {
			return false
		}
		r := sim.NewRand(seed)
		model := map[int64]byte{}
		buf := make([]byte, BlockSize)
		for i := 0; i < 400; i++ {
			lba := r.Int63n(256)
			if r.Float64() < 0.5 {
				tag := byte(r.Uint64())
				content := pattern(tag)
				if _, err := arr.Write(lba, content); err != nil {
					return false
				}
				model[lba] = tag
			} else {
				if _, err := arr.Read(lba, buf); err != nil {
					return false
				}
				tag, ok := model[lba]
				if !ok {
					continue
				}
				if !bytes.Equal(buf, pattern(tag)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFailSSD pulls the SSD out from under a content-local working set:
// the array flips into HDD-only degraded mode and keeps serving, and
// every read that no longer returns the last write is accounted as
// degraded data loss.
func TestFailSSD(t *testing.T) {
	arr := newTestArray(t)
	template := pattern(0)
	near := func(lba int64, version int) []byte {
		b := bytes.Clone(template)
		r := sim.NewRand(uint64(lba)*7 + uint64(version) + 1)
		for i := 0; i < 64; i++ {
			b[r.Intn(len(b))] = byte(r.Uint64())
		}
		return b
	}
	model := map[int64][]byte{}
	buf := make([]byte, BlockSize)
	for round := 0; round < 4; round++ {
		for lba := int64(0); lba < 600; lba++ {
			if round%2 == 0 {
				model[lba] = near(lba, round)
				if _, err := arr.Write(lba, model[lba]); err != nil {
					t.Fatal(err)
				}
			} else if _, err := arr.Read(lba, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if arr.SSDStats().Writes == 0 {
		t.Fatal("the SSD never saw a write before it failed")
	}
	arr.FailSSD()
	if !arr.Degraded() {
		t.Fatal("FailSSD did not enter degraded mode")
	}
	var wrong int64
	for lba, want := range model {
		if _, err := arr.Read(lba, buf); err != nil {
			t.Fatalf("degraded read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			wrong++
		}
	}
	if loss := arr.Stats().DegradedDataLoss; wrong > loss {
		t.Errorf("%d reads lost the last write but only %d are accounted", wrong, loss)
	}
	hddWrites := arr.HDDStats().Writes
	fresh := near(1000, 9)
	if _, err := arr.Write(1000, fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.Read(1000, buf); err != nil || !bytes.Equal(buf, fresh) {
		t.Fatalf("degraded round trip: err %v, content ok %v", err, bytes.Equal(buf, fresh))
	}
	if arr.Stats().DegradedOps == 0 {
		t.Error("no request accounted as degraded")
	}
	if err := arr.Flush(); err != nil {
		t.Fatalf("degraded flush: %v", err)
	}
	if arr.HDDStats().Writes <= hddWrites {
		t.Error("the degraded flush never wrote the HDD")
	}
}
