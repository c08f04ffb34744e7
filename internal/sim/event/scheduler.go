// Package event provides the discrete-event concurrency engine: a
// deterministic scheduler ordering timestamped events on the simulated
// timeline, service stations ("servers") that model per-device queueing
// with a busy-until horizon and a bounded FIFO queue, and request
// tracing that maps a synchronous walk through the device stack onto
// overlapping station timelines.
//
// The engine is what lets a 4-disk RAID0 array genuinely serve four
// seeks in parallel, an SSD overlap channel reads with HDD log appends,
// and five VM streams interleave by virtual arrival time — while
// remaining bit-for-bit deterministic: each scheduler and the clock it
// drives belong to one goroutine, events with equal timestamps dequeue
// in schedule order (stable tie-breaking by sequence number), and no
// wall-clock or map iteration order ever leaks into results. Two
// schedulers run side by side only over disjoint state (a sharded run's
// shard groups, each on a private clock).
package event

import (
	"fmt"

	"icash/internal/sim"
)

// event is one scheduled callback. seq breaks timestamp ties in
// schedule order, which is what makes the engine deterministic under
// simultaneous completions.
type event struct {
	at  sim.Time
	seq uint64
	fn  func()
}

// before reports heap ordering: earlier time first, then earlier
// schedule order among equal timestamps.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler is a deterministic discrete-event scheduler: a binary
// min-heap of events keyed by (time, sequence). Popping an event
// advances the shared simulation clock to the event's timestamp, so
// simulated time is always the time of the event being processed.
//
// Scheduler is not safe for concurrent use; a scheduler and its clock
// are driven by one goroutine (see the sim.Clock single-owner rule).
type Scheduler struct {
	clock *sim.Clock
	heap  []event
	seq   uint64
}

// NewScheduler returns an empty scheduler driving clock.
func NewScheduler(clock *sim.Clock) *Scheduler {
	return &Scheduler{clock: clock}
}

// At schedules fn at instant t. Scheduling into the past is a
// programming error: the clock never runs backwards.
func (s *Scheduler) At(t sim.Time, fn func()) {
	if t < s.clock.Now() {
		panic(fmt.Sprintf("event: scheduling at %d before now %d", t, s.clock.Now()))
	}
	s.seq++
	s.heap = append(s.heap, event{at: t, seq: s.seq, fn: fn})
	s.up(len(s.heap) - 1)
}

// After schedules fn d after the current instant.
func (s *Scheduler) After(d sim.Duration, fn func()) {
	if d < 0 {
		panic("event: scheduling with negative delay")
	}
	s.At(s.clock.Now().Add(d), fn)
}

// Step pops and runs the earliest pending event, advancing the clock to
// its timestamp. It returns false when no events remain.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.down(0)
	}
	s.clock.AdvanceTo(e.at)
	e.fn()
	return true
}

// Run processes events until the heap drains. Event callbacks may
// schedule further events.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// up restores the heap property after appending at index i.
func (s *Scheduler) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heap[i].before(&s.heap[parent]) {
			return
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

// down restores the heap property after replacing the root.
func (s *Scheduler) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && s.heap[l].before(&s.heap[least]) {
			least = l
		}
		if r < n && s.heap[r].before(&s.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		s.heap[i], s.heap[least] = s.heap[least], s.heap[i]
		i = least
	}
}
