package fault

import (
	"fmt"
	"strings"

	"icash/internal/sim"
)

// Fault plans. Real SSD/HDD arrays mostly die slowly: a device keeps
// answering, just 10-1000x late (SSD garbage-collection stalls, HDD
// vibration and sector remapping). A Schedule expresses that as
// declarative windows in simulated time that inflate a station's
// service time, add brownout jitter, or freeze the device outright.
// The same schedule is applied in two places:
//
//   - at the fault.Device wrapper, so the controller sees the inflated
//     service time and its deadline/hedging machinery can react;
//   - at the sim/event station layer (via Server.SetShaper), so slow
//     requests genuinely occupy the queue and starve later arrivals.
//
// Inflate is a pure function of (station, time, service time) and the
// schedule's seed — both layers agree exactly, runs replay bit-for-bit,
// and the property tests can enumerate its behavior.
//
// A window may also carry fail-stop and silent-corruption Rates, which
// only the fault.Device wrapper applies: one plan scripts every fault
// kind against the simulated timeline.

// Window is one scheduled fault episode on a station.
type Window struct {
	// Station selects the shaped station: exact name ("ssd", "hdd0") or
	// a prefix matching dotted children ("ssd" shapes "ssd.ch0"...).
	// Empty matches every station.
	Station string
	// From and To bound the episode in simulated time: the window is
	// active for operations starting in [From, To).
	From sim.Time
	To   sim.Time
	// Factor multiplies the service time of every operation inside the
	// window (a GC stall, a remapping drive). Values <= 0 mean 1.
	Factor float64
	// Jitter adds a deterministic brownout on top of Factor: each
	// operation's service time is further multiplied by a pseudo-random
	// value in [1, 1+Jitter] derived from the schedule seed and the
	// operation's time — bursty, but bit-reproducible.
	Jitter float64
	// Freeze stalls the device for the remainder of the window: an
	// operation arriving at t completes no earlier than To (plus its own
	// shaped service time). Models a hung controller that recovers.
	Freeze bool
	// Rates add to an injector's Config.Rates for its operations
	// starting inside the window. A window with only Rates leaves every
	// service time unchanged.
	Rates Rates
}

// Forever is the To of a window that never closes: beyond any run, yet
// far enough below the int64 limit that shifting it by a run's start
// instant cannot overflow.
const Forever sim.Time = 1 << 62

// active reports whether w applies to station at time at.
func (w *Window) active(station string, at sim.Time) bool {
	if at < w.From || at >= w.To {
		return false
	}
	if w.Station == "" || w.Station == station {
		return true
	}
	return strings.HasPrefix(station, w.Station+".")
}

// Schedule is a deterministic fault plan: a set of windows plus the
// seed that drives their jitter. The zero value (and nil) is an empty
// plan that never shapes anything.
type Schedule struct {
	// Seed drives brownout jitter; it does not affect windows without
	// Jitter.
	Seed uint64
	// Windows are the scheduled episodes. Overlapping windows compose
	// multiplicatively (two independent slowdowns both apply); their
	// Rates sum.
	Windows []Window
}

// Validate reports the first malformed window, or nil.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, w := range s.Windows {
		if w.To <= w.From {
			return fmt.Errorf("fault: window %d: To %v <= From %v", i, w.To, w.From)
		}
		if w.Factor < 0 || w.Jitter < 0 {
			return fmt.Errorf("fault: window %d: negative factor/jitter", i)
		}
	}
	return nil
}

// jitterQuantum buckets time for jitter derivation: every operation in
// the same ~65 µs quantum of the same window draws the same brownout
// multiplier, so the two application layers (device wrapper, station
// shaper) agree even though they see slightly different instants of the
// same request.
const jitterQuantum = 16 // log2 ns: 2^16 ns ≈ 65 µs

// jitter01 returns a deterministic value in [0, 1) from the schedule
// seed, the window index and the time quantum (splitmix64 finalizer).
func jitter01(seed, window uint64, at sim.Time) float64 {
	z := seed + 0x9e3779b97f4a7c15*(window+1) + uint64(at)>>jitterQuantum
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Inflate returns the shaped service time of an operation on station
// starting at time at with nominal service time svc. Outside every
// window it returns svc unchanged. Inside, factors (and jitter) of all
// active windows compose multiplicatively; freeze windows additionally
// delay completion to the window end. Pure and deterministic.
func (s *Schedule) Inflate(station string, at sim.Time, svc sim.Duration) sim.Duration {
	if s == nil || len(s.Windows) == 0 || svc < 0 {
		return svc
	}
	factor := 1.0
	var freeze sim.Duration
	shaped := false
	for i := range s.Windows {
		w := &s.Windows[i]
		if !w.active(station, at) {
			continue
		}
		shaped = true
		if w.Factor > 0 {
			factor *= w.Factor
		}
		if w.Jitter > 0 {
			factor *= 1 + w.Jitter*jitter01(s.Seed, uint64(i), at)
		}
		if w.Freeze {
			if d := w.To.Sub(at); d > freeze {
				freeze = d
			}
		}
	}
	if !shaped {
		return svc
	}
	return freeze + sim.Duration(factor*float64(svc))
}

// Shaper returns a station shaper closure for event.Server.SetShaper,
// binding this schedule to the given station name. A nil schedule
// returns nil (no shaping).
func (s *Schedule) Shaper(station string) func(sim.Time, sim.Duration) sim.Duration {
	if s == nil {
		return nil
	}
	return func(at sim.Time, svc sim.Duration) sim.Duration {
		return s.Inflate(station, at, svc)
	}
}
