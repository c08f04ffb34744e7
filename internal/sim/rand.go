package sim

import (
	"encoding/binary"
	"math"
)

// Rand is a small, fast, deterministic pseudo-random number generator
// (splitmix64 seeding an xoshiro256** core). Every workload generator and
// device model that needs randomness takes a *Rand so that a single seed
// reproduces an entire experiment bit-for-bit.
//
// The implementation is self-contained rather than math/rand so that the
// stream is stable across Go releases.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed non-zero state for any seed including zero.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bytes fills b with random bytes: the little-endian bytes of
// successive Uint64 draws, a final partial draw covering any tail. The
// generator steps on four locals and stores a word at a time; stream
// and end state are exactly those of calling Uint64 in a loop.
func (r *Rand) Bytes(b []byte) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, rotl(s1*5, 7)*9)
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	if len(b) > 0 {
		v := r.Uint64()
		for i := range b {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Zipf draws from a bounded Zipf-like distribution over [0, n) with
// exponent s > 0 using rejection-inversion. Larger s skews harder toward
// small values. It is the standard model for block-level temporal
// locality in storage workloads.
type Zipf struct {
	r    *Rand
	n    int
	s    float64
	hx0  float64
	hn   float64
	c    float64 // normalizing constant piece
	imax float64
}

// NewZipf returns a Zipf sampler over [0, n) with skew s (s != 1 handled
// via the generalized harmonic H function approximation).
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	if s <= 0 {
		panic("sim: NewZipf with non-positive skew")
	}
	z := &Zipf{r: r, n: n, s: s}
	z.imax = float64(n)
	z.hx0 = z.h(0.5) - 1
	z.hn = z.h(z.imax + 0.5)
	z.c = z.hx0 - z.hn
	return z
}

// h is the integral of x^-s (the continuous analogue of the harmonic
// series), used by rejection-inversion sampling.
func (z *Zipf) h(x float64) float64 {
	if z.s == 1 {
		return -math.Log(x)
	}
	return math.Pow(x, 1-z.s) / (z.s - 1)
}

// hinv inverts h.
func (z *Zipf) hinv(x float64) float64 {
	if z.s == 1 {
		return math.Exp(-x)
	}
	return math.Pow((z.s-1)*x, 1/(1-z.s))
}

// Next draws the next sample in [0, n).
func (z *Zipf) Next() int {
	for {
		u := z.hx0 - z.r.Float64()*z.c
		x := z.hinv(u)
		k := int(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > z.n {
			k = z.n
		}
		// Accept with probability proportional to the true mass.
		if float64(k)-x <= 0.5 || z.h(float64(k)+0.5)-z.h(float64(k)-0.5) >= z.hx0-u {
			return k - 1
		}
	}
}
