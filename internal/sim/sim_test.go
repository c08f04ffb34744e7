package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClock(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock must start at zero")
	}
	c.Advance(5 * Millisecond)
	c.Advance(2 * Microsecond)
	if c.Now() != Time(5*Millisecond+2*Microsecond) {
		t.Fatalf("now = %d", c.Now())
	}
	c.AdvanceTo(Time(3 * Millisecond)) // in the past: no-op
	if c.Now() != Time(5*Millisecond+2*Microsecond) {
		t.Fatal("AdvanceTo moved the clock backwards")
	}
	c.AdvanceTo(Time(10 * Millisecond))
	if c.Now() != Time(10*Millisecond) {
		t.Fatal("AdvanceTo did not move forward")
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("reset failed")
	}
}

func TestClockNegativePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance must panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		500 * Nanosecond:   "500ns",
		2 * Microsecond:    "2.00µs",
		1500 * Microsecond: "1.50ms",
		2 * Second:         "2.000s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
	if (-2 * Microsecond).String() != "-2.00µs" {
		t.Errorf("negative formatting: %q", (-2 * Microsecond).String())
	}
	if (1500 * Microsecond).Milliseconds() != 1.5 {
		t.Error("Milliseconds conversion")
	}
	if (2 * Second).Seconds() != 2 {
		t.Error("Seconds conversion")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRand(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(7)
	const buckets, n = 16, 160000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d: %d, expected ~%.0f", i, c, want)
		}
	}
}

func TestRandBytes(t *testing.T) {
	r := NewRand(9)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 100} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 16 {
			allZero := true
			for _, x := range b {
				if x != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("Bytes(%d) produced all zeros", n)
			}
		}
	}
}

// TestRandBytesMatchesUint64 pins Bytes to its definition: the
// little-endian bytes of successive Uint64 draws (a partial last draw
// for the tail), leaving the generator exactly where those draws would.
func TestRandBytesMatchesUint64(t *testing.T) {
	lengths := []int{4096}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		got, want := NewRand(uint64(n)+3), NewRand(uint64(n)+3)
		b := make([]byte, n)
		got.Bytes(b)
		for i := 0; i < n; i += 8 {
			v := want.Uint64()
			for k := i; k < i+8 && k < n; k++ {
				if b[k] != byte(v) {
					t.Fatalf("Bytes(%d): byte %d = %#x, Uint64 stream has %#x", n, k, b[k], byte(v))
				}
				v >>= 8
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("Bytes(%d): next Uint64 = %#x, want %#x", n, g, w)
		}
	}
}

// TestRandLowBytesMatchesUint64 pins LowBytes to its definition: byte i
// is the low byte of the i-th Uint64 draw, and the generator ends where
// those draws leave it.
func TestRandLowBytesMatchesUint64(t *testing.T) {
	lengths := []int{4096}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		got, want := NewRand(uint64(n)+5), NewRand(uint64(n)+5)
		b := make([]byte, n)
		got.LowBytes(b)
		for i := range b {
			if w := byte(want.Uint64()); b[i] != w {
				t.Fatalf("LowBytes(%d): byte %d = %#x, Uint64 stream has %#x", n, i, b[i], w)
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("LowBytes(%d): next Uint64 = %#x, want %#x", n, g, w)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher skew concentrates more mass on the top ranks.
	mass := func(s float64) float64 {
		r := NewRand(1)
		z := NewZipf(r, 1000, s)
		top := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.Next() < 100 {
				top++
			}
		}
		return float64(top) / n
	}
	m08, m12 := mass(0.8), mass(1.2)
	if m12 <= m08 {
		t.Fatalf("skew 1.2 top mass %.3f not above skew 0.8 %.3f", m12, m08)
	}
	if m12 < 0.5 {
		t.Fatalf("skew 1.2 top-10%% mass %.3f too small", m12)
	}
}

func TestZipfBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16, sRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		s := 0.2 + float64(sRaw)/100 // 0.2 .. 2.75
		z := NewZipf(NewRand(seed), n, s)
		for i := 0; i < 100; i++ {
			v := z.Next()
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(NewRand(1), 0, 1) },
		func() { NewZipf(NewRand(1), 10, 0) },
		func() { NewRand(1).Intn(0) },
		func() { NewRand(1).Int63n(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
