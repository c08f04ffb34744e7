package server

import (
	"fmt"
	"sort"
	"sync"
)

// Registry tracks the live sessions of the real-TCP front end: each
// accepted connection registers its session, deregisters on teardown,
// and the listener drains the set on shutdown so the close promise —
// everything a session acknowledged is durable — holds across the whole
// service, not just per connection.
//
// The simulated mode never touches it (sessions there are event
// stations owned by one goroutine); the registry exists exactly where
// real concurrency does.
type Registry struct {
	mu       sync.Mutex
	sessions map[uint64]*Session
	nextID   uint64
	draining bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[uint64]*Session)}
}

// Add registers a session and returns its id. It fails once draining
// has begun: a connection that raced the shutdown must be refused, not
// silently served without durability cover.
func (r *Registry) Add(s *Session) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return 0, fmt.Errorf("server: registry draining, connection %s refused", s.Name())
	}
	r.nextID++
	id := r.nextID
	r.sessions[id] = s
	return id, nil
}

// Remove deregisters a session. Unknown ids are ignored (teardown and
// drain can race benignly).
func (r *Registry) Remove(id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sessions, id)
}

// Len reports the number of registered sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Stats sums the accounting of every live session. Sessions are read in
// id order so any future order-sensitive aggregation stays
// deterministic.
func (r *Registry) Stats() SessionStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sumLocked()
}

// sumLocked aggregates every registered session's accounting, in id
// order. Callers hold r.mu.
func (r *Registry) sumLocked() SessionStats {
	var total SessionStats
	for _, id := range r.sortedIDs() {
		s := r.sessions[id].Stats()
		total.BytesIn += s.BytesIn
		total.BytesOut += s.BytesOut
		total.Requests += s.Requests
		total.Reads += s.Reads
		total.Writes += s.Writes
		total.Flushes += s.Flushes
		total.Trims += s.Trims
		total.StatusErrors += s.StatusErrors
		total.Service += s.Service
	}
	return total
}

// sortedIDs returns the registered session ids ascending. Callers hold
// r.mu.
func (r *Registry) sortedIDs() []uint64 {
	ids := make([]uint64, 0, len(r.sessions))
	for id := range r.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Drain begins shutdown: no new session may register, the aggregate
// accounting of everything still live is captured, and the backend is
// flushed so every write any session acknowledged is durable before the
// listener reports the service stopped.
//
// The flush runs outside r.mu: it is a blocking device call, and
// holding the registry lock across it would wedge every connection
// teardown — Remove blocks on r.mu — behind the slowest device in the
// array (TestRegistryDrainFlushesUnlocked). The draining flag is
// already set when the lock drops, so no session can register between
// capture and flush; a session still being fed counts as of its last
// completed Feed.
func (r *Registry) Drain(backend Backend) (SessionStats, error) {
	r.mu.Lock()
	r.draining = true
	total := r.sumLocked()
	r.mu.Unlock()
	if err := backend.Flush(); err != nil {
		return total, fmt.Errorf("server: drain flush: %w", err)
	}
	return total, nil
}
