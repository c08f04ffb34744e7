package fault

import (
	"bytes"
	"errors"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

func wrapMem(t *testing.T, blocks int64, cfg Config) (*Device, *blockdev.MemDevice) {
	t.Helper()
	inner := blockdev.NewMemDevice(blocks, sim.Microsecond)
	return Wrap(inner, cfg), inner
}

func fillPattern(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

func TestPassthrough(t *testing.T) {
	d, _ := wrapMem(t, 16, Config{Seed: 1})
	buf := make([]byte, blockdev.BlockSize)
	fillPattern(buf, 0xAB)
	if _, err := d.WriteBlock(3, buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, blockdev.BlockSize)
	if _, err := d.ReadBlock(3, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("read back does not match write")
	}
	if d.Stats.Reads != 1 || d.Stats.Writes != 1 {
		t.Fatalf("stats: %+v", d.Stats)
	}
}

func TestInjectBadAndHeal(t *testing.T) {
	d, _ := wrapMem(t, 16, Config{Seed: 1})
	buf := make([]byte, blockdev.BlockSize)
	d.InjectBad(5)
	if d.BadBlocks() != 1 {
		t.Fatalf("BadBlocks = %d, want 1", d.BadBlocks())
	}
	_, err := d.ReadBlock(5, buf)
	if !errors.Is(err, blockdev.ErrMedia) {
		t.Fatalf("read bad block: %v, want ErrMedia", err)
	}
	if blockdev.Classify(err) != blockdev.ClassMedia {
		t.Fatalf("classify: %v", blockdev.Classify(err))
	}
	// Other blocks unaffected.
	if _, err := d.ReadBlock(6, buf); err != nil {
		t.Fatalf("read healthy block: %v", err)
	}
	// A write heals the block.
	fillPattern(buf, 0x11)
	if _, err := d.WriteBlock(5, buf); err != nil {
		t.Fatalf("healing write: %v", err)
	}
	if d.BadBlocks() != 0 || d.Stats.HealedBlocks != 1 {
		t.Fatalf("after heal: bad=%d stats=%+v", d.BadBlocks(), d.Stats)
	}
	got := make([]byte, blockdev.BlockSize)
	if _, err := d.ReadBlock(5, got); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("healed block content wrong")
	}
}

func TestLoseRestore(t *testing.T) {
	d, _ := wrapMem(t, 16, Config{Seed: 1})
	buf := make([]byte, blockdev.BlockSize)
	if _, err := d.WriteBlock(0, buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	d.Lose()
	if !d.Lost() {
		t.Fatal("Lost() = false after Lose")
	}
	if _, err := d.ReadBlock(0, buf); !errors.Is(err, blockdev.ErrDeviceLost) {
		t.Fatalf("read on lost device: %v", err)
	}
	if _, err := d.WriteBlock(0, buf); !errors.Is(err, blockdev.ErrDeviceLost) {
		t.Fatalf("write on lost device: %v", err)
	}
	if d.Stats.LostErrors != 2 {
		t.Fatalf("LostErrors = %d, want 2", d.Stats.LostErrors)
	}
	d.Restore()
	if _, err := d.ReadBlock(0, buf); err != nil {
		t.Fatalf("read after restore: %v", err)
	}
}

func TestCrashAfterWritesTornPrefix(t *testing.T) {
	d, inner := wrapMem(t, 16, Config{Seed: 1})
	old := make([]byte, blockdev.BlockSize)
	fillPattern(old, 0x55)
	if _, err := inner.WriteBlock(7, old); err != nil {
		t.Fatalf("seed: %v", err)
	}

	const torn = 100
	d.SetCrashAfterWrites(2, torn)

	buf := make([]byte, blockdev.BlockSize)
	fillPattern(buf, 0x01)
	if _, err := d.WriteBlock(2, buf); err != nil {
		t.Fatalf("write 1: %v", err)
	}

	neu := make([]byte, blockdev.BlockSize)
	fillPattern(neu, 0xEE)
	_, err := d.WriteBlock(7, neu)
	if !errors.Is(err, blockdev.ErrDeviceLost) {
		t.Fatalf("crash-point write: %v, want ErrDeviceLost", err)
	}
	if !d.Lost() || d.Stats.TornWrites != 1 {
		t.Fatalf("after crash: lost=%v stats=%+v", d.Lost(), d.Stats)
	}

	// Power-on: media intact, the torn block holds prefix-of-new +
	// tail-of-old.
	d.Restore()
	got := make([]byte, blockdev.BlockSize)
	if _, err := d.ReadBlock(7, got); err != nil {
		t.Fatalf("read torn block: %v", err)
	}
	want := make([]byte, blockdev.BlockSize)
	copy(want, old)
	copy(want[:torn], neu[:torn])
	if !bytes.Equal(got, want) {
		t.Fatal("torn block content: want new prefix, old tail")
	}
}

func TestCrashTornZeroBytesLeavesOldContent(t *testing.T) {
	d, inner := wrapMem(t, 16, Config{Seed: 1})
	old := make([]byte, blockdev.BlockSize)
	fillPattern(old, 0x42)
	if _, err := inner.WriteBlock(3, old); err != nil {
		t.Fatalf("seed: %v", err)
	}
	d.SetCrashAfterWrites(1, 0)
	neu := make([]byte, blockdev.BlockSize)
	fillPattern(neu, 0x99)
	if _, err := d.WriteBlock(3, neu); !errors.Is(err, blockdev.ErrDeviceLost) {
		t.Fatalf("crash write: %v", err)
	}
	d.Restore()
	got := make([]byte, blockdev.BlockSize)
	if _, err := d.ReadBlock(3, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("tornBytes=0 must leave the old content untouched")
	}
}

func TestWriteTrace(t *testing.T) {
	d, _ := wrapMem(t, 16, Config{Seed: 1})
	d.TraceWrites = true
	buf := make([]byte, blockdev.BlockSize)
	for _, lba := range []int64{4, 9, 4, 1} {
		if _, err := d.WriteBlock(lba, buf); err != nil {
			t.Fatalf("write %d: %v", lba, err)
		}
	}
	want := []int64{4, 9, 4, 1}
	if len(d.WriteLog) != len(want) {
		t.Fatalf("WriteLog = %v", d.WriteLog)
	}
	for i := range want {
		if d.WriteLog[i] != want[i] {
			t.Fatalf("WriteLog = %v, want %v", d.WriteLog, want)
		}
	}
	if d.WritesSeen() != 4 {
		t.Fatalf("WritesSeen = %d", d.WritesSeen())
	}
}

// TestDeterministicRates checks that the same seed yields the identical
// fault sequence and different seeds (eventually) diverge.
func TestDeterministicRates(t *testing.T) {
	run := func(seed uint64) (Stats, []bool) {
		d, _ := wrapMem(t, 64, Config{Seed: seed, Rates: Rates{ReadMedia: 0.05, WriteMedia: 0.05, Transient: 0.1}})
		buf := make([]byte, blockdev.BlockSize)
		var outcomes []bool
		for i := 0; i < 400; i++ {
			lba := int64(i % 64)
			var err error
			if i%2 == 0 {
				_, err = d.WriteBlock(lba, buf)
			} else {
				_, err = d.ReadBlock(lba, buf)
			}
			outcomes = append(outcomes, err == nil)
		}
		return d.Stats, outcomes
	}
	s1, o1 := run(7)
	s2, o2 := run(7)
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same seed, outcome %d differs", i)
		}
	}
	if s1.MediaErrors == 0 || s1.TransientErrors == 0 {
		t.Fatalf("rates produced no faults in 400 ops: %+v", s1)
	}
	s3, _ := run(8)
	if s1 == s3 {
		t.Fatal("different seeds produced identical stats (suspicious)")
	}
}

func TestTransientDoesNotTakeEffect(t *testing.T) {
	// With Transient=1 every op times out; the inner device must never
	// observe the write.
	d, inner := wrapMem(t, 16, Config{Seed: 3, Rates: Rates{Transient: 1}})
	buf := make([]byte, blockdev.BlockSize)
	fillPattern(buf, 0x77)
	if _, err := d.WriteBlock(2, buf); !errors.Is(err, blockdev.ErrTransient) {
		t.Fatal("want ErrTransient")
	}
	got := make([]byte, blockdev.BlockSize)
	if _, err := inner.ReadBlock(2, got); err != nil {
		t.Fatalf("inner read: %v", err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("transient write leaked to inner device")
		}
	}
}
