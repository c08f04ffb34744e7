package fault

import (
	"errors"
	"fmt"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// TestScheduleWindowBounds is the property test of the window firing
// rule: across randomized windows and probe times, Inflate shapes the
// service time if and only if the probe falls in [From, To) of a
// matching window — never before From, never at or after To.
func TestScheduleWindowBounds(t *testing.T) {
	r := sim.NewRand(1234)
	const svc = 100 * sim.Microsecond
	for trial := 0; trial < 200; trial++ {
		from := sim.Time(r.Int63n(int64(10 * sim.Second)))
		width := sim.Duration(1 + r.Int63n(int64(sim.Second)))
		w := Window{
			Station: "ssd",
			From:    from,
			To:      from.Add(width),
			Factor:  2 + 10*r.Float64(),
			Jitter:  r.Float64(),
			Freeze:  r.Intn(4) == 0,
		}
		s := &Schedule{Seed: r.Uint64(), Windows: []Window{w}}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		probes := []struct {
			at     sim.Time
			inside bool
		}{
			{w.From - 1, false},
			{w.From, true},
			{w.From.Add(width / 2), true},
			{w.To - 1, true},
			{w.To, false},
			{w.To + 1, false},
			{sim.Time(r.Int63n(int64(20 * sim.Second))), false}, // recomputed below
		}
		probes[6].inside = probes[6].at >= w.From && probes[6].at < w.To
		for _, p := range probes {
			got := s.Inflate("ssd", p.at, svc)
			if !p.inside && got != svc {
				t.Fatalf("trial %d: window [%v,%v) fired at %v outside its bounds: %v -> %v",
					trial, w.From, w.To, p.at, svc, got)
			}
			if p.inside && got < sim.Duration(w.Factor*float64(svc)) {
				t.Fatalf("trial %d: inside window at %v: got %v, want >= %v",
					trial, p.at, got, sim.Duration(w.Factor*float64(svc)))
			}
			if p.inside && w.Freeze && got < w.To.Sub(p.at) {
				t.Fatalf("trial %d: freeze window at %v completed %v before window end", trial, p.at, got)
			}
			if got2 := s.Inflate("ssd", p.at, svc); got2 != got {
				t.Fatalf("trial %d: Inflate not deterministic: %v vs %v", trial, got, got2)
			}
		}
	}
}

// TestScheduleOverlapComposesMultiplicatively: two overlapping factor
// windows multiply; in the non-overlapping parts only the single active
// window applies.
func TestScheduleOverlapComposesMultiplicatively(t *testing.T) {
	const svc = 200 * sim.Microsecond
	s := &Schedule{Windows: []Window{
		{Station: "ssd", From: 1000, To: 5000, Factor: 3},
		{Station: "ssd", From: 3000, To: 8000, Factor: 5},
	}}
	cases := []struct {
		at   sim.Time
		want sim.Duration
	}{
		{500, svc},
		{1000, sim.Duration(3 * float64(svc))},
		{2999, sim.Duration(3 * float64(svc))},
		{3000, sim.Duration(3 * 5 * float64(svc))},
		{4999, sim.Duration(3 * 5 * float64(svc))},
		{5000, sim.Duration(5 * float64(svc))},
		{7999, sim.Duration(5 * float64(svc))},
		{8000, svc},
	}
	for _, tc := range cases {
		if got := s.Inflate("ssd", tc.at, svc); got != tc.want {
			t.Errorf("at %v: got %v, want %v", tc.at, got, tc.want)
		}
	}
}

// TestScheduleStationMatching: exact names, dotted-prefix children, and
// the empty wildcard.
func TestScheduleStationMatching(t *testing.T) {
	const svc = 10 * sim.Microsecond
	s := &Schedule{Windows: []Window{{Station: "ssd", From: 0, To: 1000, Factor: 4}}}
	if got := s.Inflate("ssd.ch3", 10, svc); got != 4*svc {
		t.Errorf("dotted child not shaped: %v", got)
	}
	if got := s.Inflate("ssdx", 10, svc); got != svc {
		t.Errorf("non-child prefix shaped: %v", got)
	}
	if got := s.Inflate("hdd0", 10, svc); got != svc {
		t.Errorf("unrelated station shaped: %v", got)
	}
	wild := &Schedule{Windows: []Window{{From: 0, To: 1000, Factor: 2}}}
	if got := wild.Inflate("anything", 10, svc); got != 2*svc {
		t.Errorf("wildcard window not shaped: %v", got)
	}
	var nilSched *Schedule
	if got := nilSched.Inflate("ssd", 10, svc); got != svc {
		t.Errorf("nil schedule shaped: %v", got)
	}
	if nilSched.End() != 0 || nilSched.Shaper("ssd") != nil {
		t.Error("nil schedule should be inert")
	}
}

// TestScheduleJitterDeterminism: jitter is a pure function of the seed,
// so two schedule instances agree sample-for-sample, and a different
// seed produces a different brownout sequence.
func TestScheduleJitterDeterminism(t *testing.T) {
	mk := func(seed uint64) *Schedule {
		return &Schedule{Seed: seed, Windows: []Window{
			{Station: "hdd0", From: 0, To: sim.Time(sim.Second), Factor: 1, Jitter: 2},
		}}
	}
	a, b, c := mk(7), mk(7), mk(8)
	const svc = 1 * sim.Millisecond
	diff := false
	for at := sim.Time(0); at < sim.Time(sim.Second); at += sim.Time(10 * sim.Millisecond) {
		ga, gb, gc := a.Inflate("hdd0", at, svc), b.Inflate("hdd0", at, svc), c.Inflate("hdd0", at, svc)
		if ga != gb {
			t.Fatalf("same seed diverged at %v: %v vs %v", at, ga, gb)
		}
		if ga < svc {
			t.Fatalf("jitter shrank the service time at %v: %v", at, ga)
		}
		if ga != gc {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical jitter sequences")
	}
}

// TestScheduleValidate rejects malformed windows.
func TestScheduleValidate(t *testing.T) {
	bad := []*Schedule{
		{Windows: []Window{{From: 10, To: 10}}},
		{Windows: []Window{{From: 10, To: 5}}},
		{Windows: []Window{{From: 0, To: 10, Factor: -1}}},
		{Windows: []Window{{From: 0, To: 10, Jitter: -0.5}}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("schedule %d: Validate accepted a malformed window", i)
		}
	}
	var nilSched *Schedule
	if nilSched.Validate() != nil {
		t.Error("nil schedule should validate")
	}
}

// TestClassifyUnwrapsNestedErrors: the typed *fault.Error classifies
// through arbitrary wrapping — fmt.Errorf chains from the retry path,
// double wrapping, errors.Join — and plain sentinel chains still
// classify via the blockdev fallback.
func TestClassifyUnwrapsNestedErrors(t *testing.T) {
	base := injectErr("read", 42, blockdev.ErrTransient)
	cases := []struct {
		name string
		err  error
		want blockdev.ErrorClass
	}{
		{"nil", nil, blockdev.ClassNone},
		{"typed", base, blockdev.ClassTransient},
		{"wrapped once", fmt.Errorf("retry 1: %w", base), blockdev.ClassTransient},
		{"wrapped thrice", fmt.Errorf("a: %w", fmt.Errorf("b: %w", fmt.Errorf("c: %w", base))), blockdev.ClassTransient},
		{"joined", errors.Join(errors.New("context"), fmt.Errorf("op: %w", base)), blockdev.ClassTransient},
		{"typed media", fmt.Errorf("x: %w", injectErr("write", 7, blockdev.ErrMedia)), blockdev.ClassMedia},
		{"typed lost", fmt.Errorf("x: %w", injectErr("write", 7, blockdev.ErrDeviceLost)), blockdev.ClassDeviceLost},
		{"bare sentinel", fmt.Errorf("no typed error: %w", blockdev.ErrMedia), blockdev.ClassMedia},
		{"unknown", errors.New("who knows"), blockdev.ClassOther},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The typed error also satisfies the old sentinel interface, so
	// pre-existing blockdev.Classify call sites keep working.
	if got := blockdev.Classify(fmt.Errorf("w: %w", base)); got != blockdev.ClassTransient {
		t.Errorf("blockdev.Classify on typed error = %v", got)
	}
	var fe *Error
	if !errors.As(fmt.Errorf("w: %w", base), &fe) || fe.LBA != 42 || fe.Op != "read" {
		t.Error("errors.As failed to recover the typed error details")
	}
}

// TestDeviceFailSlowPlan: a wrapped device's reported service times are
// inflated inside plan windows (successes and injected errors alike)
// and untouched outside, with the extra time accounted in Stats.
func TestDeviceFailSlowPlan(t *testing.T) {
	clock := sim.NewClock()
	inner := blockdev.NewMemDevice(64, 100*sim.Microsecond)
	plan := &Schedule{Windows: []Window{
		{Station: "ssd", From: sim.Time(1 * sim.Second), To: sim.Time(2 * sim.Second), Factor: 100},
	}}
	d := Wrap(inner, Config{Plan: plan, Clock: clock, Station: "ssd"})
	buf := make([]byte, blockdev.BlockSize)

	before, err := d.ReadBlock(3, buf)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(sim.Duration(1500 * sim.Millisecond))
	during, err := d.ReadBlock(3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if during != 100*before {
		t.Errorf("in-window read latency %v, want 100x %v", during, before)
	}
	if d.Stats.SlowOps != 1 || d.Stats.SlowTime != during-before {
		t.Errorf("slow accounting = %d ops / %v", d.Stats.SlowOps, d.Stats.SlowTime)
	}
	// Injected error latencies are shaped too.
	d.InjectBad(5)
	lat, err := d.ReadBlock(5, buf)
	if Classify(err) != blockdev.ClassMedia {
		t.Fatalf("expected media error, got %v", err)
	}
	if want := errorLatency * 100; lat != want {
		t.Errorf("in-window error latency %v, want %v", lat, want)
	}
	clock.Advance(sim.Duration(1 * sim.Second)) // past the window
	after, err := d.ReadBlock(3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("post-window read latency %v, want %v", after, before)
	}
}
