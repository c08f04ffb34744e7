// Package metrics provides latency recording and table formatting for
// the experiment harness. Latencies go into logarithmic histograms so
// means and percentiles are available without storing every sample.
package metrics

import (
	"fmt"
	"math/bits"

	"icash/internal/sim"
)

// Histogram is a fixed-bucket latency histogram with enough resolution
// for tail percentiles (p99, p999): every power-of-two octave is split
// into four linear sub-buckets — two significant bits of mantissa — so
// a p999 estimate is within ~12.5% of the true sample. Count, Sum and
// Mean are exact, not bucketed.
//
// The bucket layout is fixed (no allocation, mergeable by index):
//
//	d < histMinMag:            4 linear buckets of histMinMag/4 each
//	histMinMag <= d < 2^histMaxExp:  4 sub-buckets per octave
//	d >= 2^histMaxExp:         the last bucket (~17 s and beyond)
//
// The zero value is ready to use.
type Histogram struct {
	count   int64
	sum     sim.Duration
	min     sim.Duration
	max     sim.Duration
	buckets [histBuckets]int64
}

const (
	// histMinExp: durations below 2^histMinExp ns (~1 µs) share four
	// linear buckets; nothing in the simulation resolves finer.
	histMinExp = 10
	// histMaxExp caps the top octave at 2^34 ns (~17 s).
	histMaxExp = 34
	// histSub is the number of linear sub-buckets per octave.
	histSub = 4

	histMinMag  = int64(1) << histMinExp
	histBuckets = histSub + (histMaxExp-histMinExp)*histSub + 1
)

// histBucketOf maps a duration to its bucket index.
func histBucketOf(d sim.Duration) int {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if v < histMinMag {
		return int(v / (histMinMag / histSub))
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	// Two bits of mantissa below the leading bit select the sub-bucket.
	sub := int((v >> uint(exp-2)) & (histSub - 1))
	return histSub + (exp-histMinExp)*histSub + sub
}

// histBucketBounds returns the [lo, hi) duration range of bucket b.
func histBucketBounds(b int) (lo, hi sim.Duration) {
	if b < histSub {
		step := histMinMag / histSub
		return sim.Duration(int64(b) * step), sim.Duration(int64(b+1) * step)
	}
	if b >= histBuckets-1 {
		return sim.Duration(int64(1) << histMaxExp), sim.Duration(int64(1) << 62)
	}
	b -= histSub
	exp := histMinExp + b/histSub
	sub := int64(b % histSub)
	base := int64(1) << uint(exp)
	step := base / histSub
	return sim.Duration(base + sub*step), sim.Duration(base + (sub+1)*step)
}

// Record adds one sample.
func (h *Histogram) Record(d sim.Duration) {
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[histBucketOf(d)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the total recorded time.
func (h *Histogram) Sum() sim.Duration { return h.sum }

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.count)
}

// Min returns the smallest sample.
func (h *Histogram) Min() sim.Duration { return h.min }

// Max returns the largest sample.
func (h *Histogram) Max() sim.Duration { return h.max }

// Percentile returns an estimate of the p-th percentile (0 < p <= 100)
// as the midpoint of the containing bucket, clamped to the observed
// range.
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	target := int64(p / 100 * float64(h.count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.buckets[b]
		if cum >= target {
			lo, hi := histBucketBounds(b)
			return clampDur((lo+hi)/2, h.min, h.max)
		}
	}
	return h.max
}

// clampDur bounds a bucket-midpoint estimate to the observed range.
func clampDur(d, lo, hi sim.Duration) sim.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// P50, P95, P99 and P999 are the percentile shorthands every table uses.
func (h *Histogram) P50() sim.Duration  { return h.Percentile(50) }
func (h *Histogram) P95() sim.Duration  { return h.Percentile(95) }
func (h *Histogram) P99() sim.Duration  { return h.Percentile(99) }
func (h *Histogram) P999() sim.Duration { return h.Percentile(99.9) }

// Merge adds o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// String summarizes the distribution with the tail percentiles.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p999=%v max=%v",
		h.count, h.Mean(), h.P50(), h.P95(), h.P99(), h.P999(), h.max)
}
