package fault

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// Tests for the silent-corruption fault modes: the device lies and
// returns success, so nothing here ever produces an error — the whole
// point is that only a checksum above the device can notice.

func diffBits(a, b []byte) int {
	n := 0
	for i := range a {
		x := a[i] ^ b[i]
		for x != 0 {
			n += int(x & 1)
			x >>= 1
		}
	}
	return n
}

// TestSilentBitFlipOnRead: a read under BitFlip=1 succeeds and returns
// the block with exactly one bit wrong, while the media stays intact
// (a transfer-path upset, not rot).
func TestSilentBitFlipOnRead(t *testing.T) {
	inner := blockdev.NewMemDevice(16, sim.Microsecond)
	d := Wrap(inner, Config{Seed: 3, Rates: Rates{Silent: SilentRates{BitFlip: 1}}})
	orig := make([]byte, blockdev.BlockSize)
	fillPattern(orig, 0x5A)
	if _, err := inner.WriteBlock(4, orig); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.BlockSize)
	if _, err := d.ReadBlock(4, got); err != nil {
		t.Fatalf("bit-flip read must still report success: %v", err)
	}
	if n := diffBits(orig, got); n != 1 {
		t.Fatalf("read differs from media by %d bits, want exactly 1", n)
	}
	if d.Stats.BitFlips != 1 {
		t.Fatalf("BitFlips = %d, want 1", d.Stats.BitFlips)
	}
	if d.SilentOutstanding() != 1 {
		t.Fatalf("SilentOutstanding = %d, want 1", d.SilentOutstanding())
	}
	// The media itself is untouched.
	raw := make([]byte, blockdev.BlockSize)
	if _, err := inner.ReadBlock(4, raw); err != nil || !bytes.Equal(raw, orig) {
		t.Fatal("bit-flip-on-read must not modify the stored content")
	}
	// The integrity layer catching it pops the stamp exactly once.
	if _, ok := d.TakeCorruption(4); !ok {
		t.Fatal("TakeCorruption found no outstanding injection")
	}
	if _, ok := d.TakeCorruption(4); ok {
		t.Fatal("TakeCorruption popped the same injection twice")
	}
	if d.SilentOutstanding() != 0 {
		t.Fatalf("SilentOutstanding = %d after pop, want 0", d.SilentOutstanding())
	}
}

// TestSilentLostWrite: a write under LostWrite=1 is acked as durable
// but the old content survives on media; an honest overwrite (after
// the fault window closes) clears the outstanding damage.
func TestSilentLostWrite(t *testing.T) {
	clock := sim.NewClock()
	inner := blockdev.NewMemDevice(16, sim.Microsecond)
	plan := &SilentPlan{Windows: []SilentWindow{
		{From: 0, To: sim.Time(100 * sim.Microsecond), SilentRates: SilentRates{LostWrite: 1}},
	}}
	d := Wrap(inner, Config{Seed: 7, Clock: clock, Silent: plan})

	orig := make([]byte, blockdev.BlockSize)
	fillPattern(orig, 0x11)
	if _, err := inner.WriteBlock(9, orig); err != nil {
		t.Fatal(err)
	}
	lost := make([]byte, blockdev.BlockSize)
	fillPattern(lost, 0x22)
	if _, err := d.WriteBlock(9, lost); err != nil {
		t.Fatalf("lost write must still report success: %v", err)
	}
	got := make([]byte, blockdev.BlockSize)
	if _, err := d.ReadBlock(9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("lost write reached the media")
	}
	if d.Stats.LostWrites != 1 || d.SilentOutstanding() != 1 {
		t.Fatalf("stats: lost=%d outstanding=%d", d.Stats.LostWrites, d.SilentOutstanding())
	}
	// Past the window the device is honest again: the overwrite lands
	// and the outstanding damage is gone with it.
	clock.Advance(time200())
	if _, err := d.WriteBlock(9, lost); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadBlock(9, got); err != nil || !bytes.Equal(got, lost) {
		t.Fatal("honest write after the window did not land")
	}
	if d.SilentOutstanding() != 0 {
		t.Fatalf("honest overwrite left %d outstanding", d.SilentOutstanding())
	}
}

func time200() sim.Duration { return 200 * sim.Microsecond }

// TestSilentMisdirectedWrite: under Misdirect=1 the write lands on the
// neighboring LBA — the target keeps stale data, the neighbor is
// clobbered, and both are marked silently damaged.
func TestSilentMisdirectedWrite(t *testing.T) {
	inner := blockdev.NewMemDevice(16, sim.Microsecond)
	d := Wrap(inner, Config{Seed: 5, Rates: Rates{Silent: SilentRates{Misdirect: 1}}})
	a := make([]byte, blockdev.BlockSize)
	b := make([]byte, blockdev.BlockSize)
	fillPattern(a, 0xAA)
	fillPattern(b, 0xBB)
	if _, err := inner.WriteBlock(6, a); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.WriteBlock(7, b); err != nil {
		t.Fatal(err)
	}
	w := make([]byte, blockdev.BlockSize)
	fillPattern(w, 0xCC)
	if _, err := d.WriteBlock(6, w); err != nil {
		t.Fatalf("misdirected write must still report success: %v", err)
	}
	got := make([]byte, blockdev.BlockSize)
	if _, err := inner.ReadBlock(6, got); err != nil || !bytes.Equal(got, a) {
		t.Fatal("target LBA should keep its stale content")
	}
	if _, err := inner.ReadBlock(7, got); err != nil || !bytes.Equal(got, w) {
		t.Fatal("neighbor LBA should hold the misdirected content")
	}
	if d.Stats.MisdirectedWrites != 1 || d.SilentOutstanding() != 2 {
		t.Fatalf("stats: misdirected=%d outstanding=%d",
			d.Stats.MisdirectedWrites, d.SilentOutstanding())
	}
}

// TestMisdirectTarget pins the neighbor mapping at the range edges.
func TestMisdirectTarget(t *testing.T) {
	cases := []struct{ lba, blocks, want int64 }{
		{0, 16, 1},
		{1, 16, 0},
		{6, 16, 7},
		{7, 16, 6},
		{15, 16, 14},
	}
	for _, tc := range cases {
		if got := misdirectTarget(tc.lba, tc.blocks); got != tc.want {
			t.Errorf("misdirectTarget(%d, %d) = %d, want %d", tc.lba, tc.blocks, got, tc.want)
		}
	}
}

// TestSilentPlanWindows: windowed rates activate only inside [From,To)
// and overlapping windows sum.
func TestSilentPlanWindows(t *testing.T) {
	p := &SilentPlan{Windows: []SilentWindow{
		{From: 100, To: 200, SilentRates: SilentRates{BitFlip: 0.25}},
		{From: 150, To: 300, SilentRates: SilentRates{BitFlip: 0.5, LostWrite: 0.1}},
	}}
	if r := p.At(50); !r.zero() {
		t.Fatalf("At(50) = %+v, want zero", r)
	}
	if r := p.At(100); r.BitFlip != 0.25 || r.LostWrite != 0 {
		t.Fatalf("At(100) = %+v", r)
	}
	if r := p.At(175); r.BitFlip != 0.75 || r.LostWrite != 0.1 {
		t.Fatalf("At(175) = %+v (overlap should sum)", r)
	}
	if r := p.At(300); !r.zero() {
		t.Fatalf("At(300) = %+v, want zero (To exclusive)", r)
	}
	var nilPlan *SilentPlan
	if r := nilPlan.At(10); !r.zero() {
		t.Fatal("nil plan must report zero rates")
	}
}

// TestSilentZeroRatesBitIdentical: configuring the silent machinery
// with all-zero rates must not perturb the injection RNG stream — the
// same op sequence produces identical stats and contents as a config
// that never mentions silent faults.
func TestSilentZeroRatesBitIdentical(t *testing.T) {
	run := func(withSilent bool) (Stats, []byte) {
		clock := sim.NewClock()
		cfg := Config{Seed: 11, Clock: clock, Rates: Rates{Transient: 0.2, ReadMedia: 0.01}}
		if withSilent {
			cfg.Rates.Silent = SilentRates{}
			cfg.Silent = &SilentPlan{}
		}
		inner := blockdev.NewMemDevice(64, sim.Microsecond)
		d := Wrap(inner, cfg)
		r := sim.NewRand(99)
		buf := make([]byte, blockdev.BlockSize)
		sum := make([]byte, 0, 512)
		for op := 0; op < 500; op++ {
			lba := int64(r.Intn(64))
			if r.Float64() < 0.5 {
				fillPattern(buf, byte(op))
				d.WriteBlock(lba, buf)
			} else if _, err := d.ReadBlock(lba, buf); err == nil {
				sum = append(sum, buf[0])
			}
			clock.Advance(sim.Microsecond)
		}
		return d.Stats, sum
	}
	s1, c1 := run(false)
	s2, c2 := run(true)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats diverged:\n off %+v\n  on %+v", s1, s2)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("read contents diverged with zero-rate silent config")
	}
}

// TestCorruptionClassDistinct: the Corruption class is its own failure
// class — distinct from Media — and survives the double-%w wrapping
// the core request path applies.
func TestCorruptionClassDistinct(t *testing.T) {
	wrapped := fmt.Errorf("request: %w", fmt.Errorf("core: lba 7: %w: %w",
		errors.New("decode failed"), blockdev.ErrCorruption))
	if !errors.Is(wrapped, blockdev.ErrCorruption) {
		t.Fatal("errors.Is(wrapped, ErrCorruption) = false")
	}
	if got := blockdev.Classify(wrapped); got != blockdev.ClassCorruption {
		t.Fatalf("Classify = %v, want ClassCorruption", got)
	}
	if errors.Is(wrapped, blockdev.ErrMedia) {
		t.Fatal("corruption error must not satisfy ErrMedia")
	}
	if blockdev.Classify(blockdev.ErrMedia) == blockdev.ClassCorruption {
		t.Fatal("media errors must not classify as corruption")
	}
}
