package metrics

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"icash/internal/sim"
)

func TestEmptyRecorder(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.P50() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestBasicStats: count, sum and mean are exact — the figures and the
// LoadSim score divide Sum by Count, so bucketing must never touch them.
func TestBasicStats(t *testing.T) {
	var h Histogram
	for _, d := range []sim.Duration{10, 20, 30, 40} {
		h.Record(d * sim.Microsecond)
	}
	if h.Count() != 4 || h.Sum() != 100*sim.Microsecond {
		t.Fatalf("count/sum = %d/%v", h.Count(), h.Sum())
	}
	if h.Mean() != 25*sim.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 10*sim.Microsecond || h.Max() != 40*sim.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if !strings.Contains(h.String(), "n=4") {
		t.Fatalf("String() = %q", h.String())
	}
}

// Property: mean is exact (not bucketed), percentiles are monotone in
// p, and every estimate stays inside the observed range.
func TestRecorderProperties(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		var sum sim.Duration
		for _, v := range raw {
			d := sim.Duration(v)
			h.Record(d)
			sum += d
		}
		if h.Sum() != sum || h.Mean() != sum/sim.Duration(len(raw)) {
			return false
		}
		last := h.Min()
		for _, p := range []float64{10, 50, 90, 99, 99.9} {
			cur := h.Percentile(p)
			if cur < last || cur > h.Max() {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramBucketRoundTrip: every bucket's bounds contain exactly
// the durations that map back to it.
func TestHistogramBucketRoundTrip(t *testing.T) {
	for b := 0; b < histBuckets; b++ {
		lo, hi := histBucketBounds(b)
		if got := histBucketOf(lo); got != b {
			t.Fatalf("bucket %d: lower bound %v maps to %d", b, lo, got)
		}
		if b < histBuckets-1 {
			if got := histBucketOf(hi - 1); got != b {
				t.Fatalf("bucket %d: top %v maps to %d", b, hi-1, got)
			}
			if got := histBucketOf(hi); got != b+1 {
				t.Fatalf("bucket %d: upper bound %v maps to %d, want %d", b, hi, got, b+1)
			}
		}
	}
	if got := histBucketOf(-5); got != 0 {
		t.Errorf("negative duration maps to %d, want 0", got)
	}
}

// TestHistogramPercentileAccuracy checks percentile estimates against
// exact order statistics on a deterministic heavy-tailed sample set: the
// two-bit mantissa keeps every estimate within 15% (one sub-bucket) of
// the true value.
func TestHistogramPercentileAccuracy(t *testing.T) {
	r := sim.NewRand(7)
	var h Histogram
	samples := make([]sim.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mixture: mostly ~100 µs, a 2% tail out to ~50 ms.
		d := 50*sim.Microsecond + sim.Duration(r.Int63n(int64(100*sim.Microsecond)))
		if r.Float64() < 0.02 {
			d = 5*sim.Millisecond + sim.Duration(r.Int63n(int64(45*sim.Millisecond)))
		}
		h.Record(d)
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 95, 99, 99.9} {
		idx := int(p / 100 * float64(len(samples)))
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		exact := samples[idx]
		got := h.Percentile(p)
		lo := float64(exact) * 0.85
		hi := float64(exact) * 1.15
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("p%v = %v, want within 15%% of exact %v", p, got, exact)
		}
	}
}

// TestHistogramMerge: merging two histograms equals recording the
// concatenated sample stream.
func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	r := sim.NewRand(9)
	for i := 0; i < 5000; i++ {
		d := sim.Duration(r.Int63n(int64(20 * sim.Millisecond)))
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
		all.Record(d)
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from directly recorded histogram")
	}
	var empty Histogram
	a.Merge(&empty)
	if a != all {
		t.Fatal("merging an empty histogram changed the receiver")
	}
}

// TestHistogramEdges covers the empty histogram and extreme samples.
func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if h.Percentile(99) != 0 || h.String() != "no samples" {
		t.Fatal("empty histogram should report zero percentiles")
	}
	h.Record(0)
	h.Record(1 << 40) // beyond the top octave
	if h.Min() != 0 || h.Max() != 1<<40 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if p := h.Percentile(100); p != h.Max() {
		t.Errorf("p100 = %v, want max %v", p, h.Max())
	}
	if p := h.Percentile(0); p != h.Min() {
		t.Errorf("p0 = %v, want min %v", p, h.Min())
	}
}
