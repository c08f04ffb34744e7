package event

import (
	"fmt"

	"icash/internal/metrics"
	"icash/internal/sim"
)

// DefaultQueueCap is the per-station queue bound used by the harness:
// the 32-entry NCQ window of a SATA device.
const DefaultQueueCap = 32

// Server models one service station of a device: an SSD channel, an HDD
// actuator, or one member of a RAID stripe. A station serves requests
// one at a time in FIFO order; concurrency across stations is what the
// engine exploits.
//
// The station keeps a busy-until horizon (the instant its last admitted
// request completes) and a bounded queue: a request arriving when the
// queue is full cannot even be enqueued until an occupant completes —
// the backpressure a full NCQ slot table exerts on the host.
type Server struct {
	name     string
	queueCap int

	busyUntil sim.Time
	// occupants holds the completion instants of admitted requests that
	// may still be in the station (queued or in service), oldest first.
	// Admission drains completed entries, so its length is the queue
	// occupancy seen by the next arrival.
	occupants []sim.Time

	// shaper, when set, rewrites a request's service time at the moment
	// service starts (fail-slow fault plans). It must be pure: same
	// (start, svc) in, same shaped time out. A shaped request occupies
	// the station for the inflated time, so later arrivals queue behind
	// it — the starvation a genuinely slow device inflicts.
	shaper func(start sim.Time, svc sim.Duration) sim.Duration
	// observer, when set, sees every admitted request's (shaped) service
	// time — the slow-device detector's feed.
	observer func(svc sim.Duration)

	// Ops counts admitted requests.
	Ops int64
	// BusyTime is accumulated service time (utilization numerator).
	BusyTime sim.Duration
	// Wait is the queue-wait distribution (time between arrival and
	// service start).
	Wait metrics.Histogram
	// Service is the per-station service-time distribution after
	// shaping, with tail-percentile resolution.
	Service metrics.Histogram
	// SlowOps counts requests whose service time the shaper inflated;
	// SlowTime is the total time it injected.
	SlowOps  int64
	SlowTime sim.Duration
	// QueuePeak is the largest queue occupancy observed at admission.
	QueuePeak int
	// Stalls counts admissions that found the bounded queue full and had
	// to wait for a slot.
	Stalls int64
}

// NewServer returns a station with the given queue bound. queueCap <= 0
// means unbounded.
func NewServer(name string, queueCap int) *Server {
	return &Server{name: name, queueCap: queueCap}
}

// Name returns the station label.
func (s *Server) Name() string { return s.name }

// SetShaper installs (or clears, with nil) the service-time shaper.
func (s *Server) SetShaper(f func(start sim.Time, svc sim.Duration) sim.Duration) {
	s.shaper = f
}

// SetObserver installs (or clears, with nil) the service-time observer.
func (s *Server) SetObserver(f func(svc sim.Duration)) { s.observer = f }

// BusyUntil returns the instant the station's last admitted request
// completes. It never regresses.
func (s *Server) BusyUntil() sim.Time { return s.busyUntil }

// Admit schedules one request with service demand svc arriving at
// arrival. It returns the instant service starts (after any queue wait)
// and the completion instant. FIFO order holds: completions are
// admitted in nondecreasing order of (arrival, admission sequence), and
// the busy-until horizon never regresses.
func (s *Server) Admit(arrival sim.Time, svc sim.Duration) (start, done sim.Time) {
	if svc < 0 {
		panic(fmt.Sprintf("event: %s: negative service time %v", s.name, svc))
	}
	// Free the slots of requests that completed before this arrival.
	n := 0
	for n < len(s.occupants) && s.occupants[n] <= arrival {
		n++
	}
	if n > 0 {
		s.occupants = s.occupants[:copy(s.occupants, s.occupants[n:])]
	}
	gate := arrival
	if s.queueCap > 0 && len(s.occupants) >= s.queueCap {
		// Queue full: admission blocks until the oldest occupant leaves.
		gate = s.occupants[0]
		s.occupants = s.occupants[:copy(s.occupants, s.occupants[1:])]
		s.Stalls++
	}
	start = gate
	if s.busyUntil > start {
		start = s.busyUntil
	}
	// Fail-slow shaping happens at service start: the slow request holds
	// the station for its inflated time and everything behind it waits.
	if s.shaper != nil {
		shaped := s.shaper(start, svc)
		if shaped > svc {
			s.SlowOps++
			s.SlowTime += shaped - svc
			svc = shaped
		}
	}
	done = start.Add(svc)
	s.busyUntil = done
	s.occupants = append(s.occupants, done)
	if len(s.occupants) > s.QueuePeak {
		s.QueuePeak = len(s.occupants)
	}
	s.Ops++
	s.BusyTime += svc
	s.Wait.Record(start.Sub(arrival))
	s.Service.Record(svc)
	if s.observer != nil {
		s.observer(svc)
	}
	return start, done
}

// Snapshot renders the station's accounting over an observation window.
func (s *Server) Snapshot(elapsed sim.Duration) metrics.StationStats {
	st := metrics.StationStats{
		Name:      s.name,
		Ops:       s.Ops,
		Busy:      s.BusyTime,
		QueuePeak: s.QueuePeak,
		Stalls:    s.Stalls,
		Wait:      s.Wait,
		Service:   s.Service,
		SlowOps:   s.SlowOps,
		SlowTime:  s.SlowTime,
	}
	if elapsed > 0 {
		st.Utilization = float64(s.BusyTime) / float64(elapsed)
		if st.Utilization > 1 {
			st.Utilization = 1
		}
	}
	return st
}

// ResetStats zeroes the accumulated statistics. The busy-until horizon
// and queue occupancy are preserved: they are simulation state, not
// accounting.
func (s *Server) ResetStats() {
	s.Ops = 0
	s.BusyTime = 0
	s.Wait = metrics.Histogram{}
	s.Service = metrics.Histogram{}
	s.SlowOps = 0
	s.SlowTime = 0
	s.QueuePeak = 0
	s.Stalls = 0
}
