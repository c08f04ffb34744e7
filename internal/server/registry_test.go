package server

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"icash/internal/sim"
)

// errTestFlush is the injected flush failure for the router barrier
// test.
var errTestFlush = errors.New("injected flush failure")

// flushCountBackend counts flushes over a fixed-size in-memory store.
type flushCountBackend struct {
	flushes int
	fail    error
}

func (f *flushCountBackend) ReadBlock(lba int64, buf []byte) (sim.Duration, error)  { return 0, nil }
func (f *flushCountBackend) WriteBlock(lba int64, buf []byte) (sim.Duration, error) { return 0, nil }
func (f *flushCountBackend) Blocks() int64                                          { return 64 }
func (f *flushCountBackend) Flush() error {
	f.flushes++
	return f.fail
}

func newServingSession(t *testing.T, name string, backend Backend) *Session {
	t.Helper()
	s := NewSession(name, backend, SessionOptions{MaxWindow: 4})
	hello := AppendHello(nil, Hello{Version: ProtocolVersion, VM: AnyVM, WantWindow: 4})
	if _, err := s.Feed(hello); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if s.State() != StateServing {
		t.Fatalf("session state %v after handshake", s.State())
	}
	return s
}

// TestRegistryAddRemove pins registration bookkeeping.
func TestRegistryAddRemove(t *testing.T) {
	b := &flushCountBackend{}
	r := NewRegistry()
	s1 := newServingSession(t, "a", b)
	s2 := newServingSession(t, "b", b)
	id1, err := r.Add(s1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := r.Add(s2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("duplicate session ids: %d", id1)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	r.Remove(id1)
	r.Remove(id1) // double remove is benign
	if r.Len() != 1 {
		t.Fatalf("Len after remove = %d, want 1", r.Len())
	}
}

// TestRegistryStats pins deterministic aggregation across sessions.
func TestRegistryStats(t *testing.T) {
	b := &flushCountBackend{}
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		s := newServingSession(t, "s", b)
		// One read each so the aggregate is visible.
		req := AppendRequest(nil, Request{Op: OpRead, ID: 1, LBA: uint64(i), Blocks: 1})
		if _, err := s.Feed(req); err != nil {
			t.Fatalf("read: %v", err)
		}
		if _, err := r.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	total := r.Stats()
	if total.Reads != 3 {
		t.Fatalf("aggregate Reads = %d, want 3", total.Reads)
	}
	if total.Requests != 3 {
		t.Fatalf("aggregate Requests = %d, want 3", total.Requests)
	}
}

// TestRegistryDrain pins the shutdown contract: drain flushes the
// backend once, captures the aggregate, and refuses late registration.
func TestRegistryDrain(t *testing.T) {
	b := &flushCountBackend{}
	r := NewRegistry()
	s := newServingSession(t, "a", b)
	if _, err := r.Add(s); err != nil {
		t.Fatal(err)
	}
	total, err := r.Drain(b)
	if err != nil {
		t.Fatal(err)
	}
	if b.flushes != 1 {
		t.Fatalf("drain flushed %d times, want 1", b.flushes)
	}
	if total.Requests != 0 {
		t.Fatalf("aggregate Requests = %d, want 0", total.Requests)
	}
	if _, err := r.Add(newServingSession(t, "late", b)); err == nil {
		t.Fatal("Add after Drain succeeded; want refusal")
	} else if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("Add after Drain: unexpected error %v", err)
	}
}

// unlockedFlushBackend fails the test when Flush runs while the
// registry's lock is held.
type unlockedFlushBackend struct {
	flushCountBackend
	t *testing.T
	r *Registry
}

func (b *unlockedFlushBackend) Flush() error {
	if !b.r.mu.TryLock() {
		b.t.Error("Drain holds the registry lock across the backend flush")
	} else {
		b.r.mu.Unlock()
	}
	return b.flushCountBackend.Flush()
}

// TestRegistryDrainFlushesUnlocked pins that Drain releases r.mu before
// the blocking flush: holding it would wedge every connection teardown
// (Remove takes r.mu) behind the slowest device in the array.
func TestRegistryDrainFlushesUnlocked(t *testing.T) {
	r := NewRegistry()
	b := &unlockedFlushBackend{t: t, r: r}
	if _, err := r.Add(newServingSession(t, "a", b)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Drain(b); err != nil {
		t.Fatal(err)
	}
	if b.flushes != 1 {
		t.Fatalf("drain flushed %d times, want 1", b.flushes)
	}
}

// TestRegistryDrainDuringTraffic sums and drains the registry from the
// test goroutine while a connection goroutine is feeding reads through
// a router: the aggregate must be readable mid-traffic without a data
// race (run under -race), and once the feeder stops it is exact.
func TestRegistryDrainDuringTraffic(t *testing.T) {
	router, err := NewShardRouter([]Backend{&recordBackend{}, &recordBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	s := newServingSession(t, "conn", router)
	if _, err := r.Add(s); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	fed := make(chan int64, 1) // the feeder's final request count
	go func() {
		n := int64(0)
		defer func() { fed <- n }()
		for ; !stop.Load(); n++ {
			req := AppendRequest(nil, Request{Op: OpRead, ID: uint64(n), LBA: uint64(n % 128), Blocks: 1})
			if _, err := s.Feed(req); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Poll until the sum shows the feeder well under way, so the reads
	// here and the drain below overlap its Feeds.
	var mid SessionStats
	for mid.Reads < 100 {
		select {
		case n := <-fed:
			t.Fatalf("feeder stopped after %d requests", n)
		default:
			runtime.Gosched()
		}
		mid = r.Stats()
	}
	drained, err := r.Drain(router)
	if err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	n := <-fed
	if mid.Reads > drained.Reads || drained.Reads > n {
		t.Fatalf("reads seen mid-traffic %d, at drain %d, fed %d: want mid <= drained <= fed", mid.Reads, drained.Reads, n)
	}
	if got := r.Stats().Reads; got != n {
		t.Fatalf("aggregate Reads after the feeder stopped = %d, want %d", got, n)
	}
}

// recordBackend counts ops without any internal locking, so the race
// detector proves the router serializes everything that reaches one
// shard.
type recordBackend struct {
	reads, writes, flushes int
	lastLBA                int64
	fail                   error
}

func (b *recordBackend) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	b.reads++
	b.lastLBA = lba
	return 0, nil
}
func (b *recordBackend) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	b.writes++
	b.lastLBA = lba
	return 0, nil
}
func (b *recordBackend) Blocks() int64 { return 64 }
func (b *recordBackend) Flush() error {
	b.flushes++
	return b.fail
}

// TestShardRouterRoutes pins the routing arithmetic: global LBAs split
// into (shard, local) by the uniform shard size, out-of-range LBAs are
// refused before any shard is touched.
func TestShardRouterRoutes(t *testing.T) {
	inner := []*recordBackend{{}, {}, {}, {}}
	shards := make([]Backend, len(inner))
	for i := range inner {
		shards[i] = inner[i]
	}
	r, err := NewShardRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 256 || r.NumShards() != 4 || r.ShardBlocks() != 64 {
		t.Fatalf("shape: blocks=%d shards=%d per=%d", r.Blocks(), r.NumShards(), r.ShardBlocks())
	}
	buf := make([]byte, 4096)
	if _, err := r.WriteBlock(70, buf); err != nil {
		t.Fatal(err)
	}
	if inner[1].writes != 1 || inner[1].lastLBA != 6 {
		t.Fatalf("lba 70: shard 1 saw writes=%d lastLBA=%d, want 1/6", inner[1].writes, inner[1].lastLBA)
	}
	if _, err := r.ReadBlock(255, buf); err != nil {
		t.Fatal(err)
	}
	if inner[3].reads != 1 || inner[3].lastLBA != 63 {
		t.Fatalf("lba 255: shard 3 saw reads=%d lastLBA=%d, want 1/63", inner[3].reads, inner[3].lastLBA)
	}
	for _, lba := range []int64{-1, 256} {
		if _, err := r.ReadBlock(lba, buf); err == nil {
			t.Errorf("read of lba %d succeeded; want range error", lba)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, b := range inner {
		if b.flushes != 1 {
			t.Errorf("shard %d flushed %d times, want 1", i, b.flushes)
		}
	}
}

// TestShardRouterSerializes drives concurrent writers and flushers
// through the router; the backends hold no locks of their own, so -race
// proves the per-shard addresses serialize every path (including the
// all-shards flush barrier), and the counters prove no call was lost.
func TestShardRouterSerializes(t *testing.T) {
	inner := []*recordBackend{{}, {}}
	r, err := NewShardRouter([]Backend{inner[0], inner[1]})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(4)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer wg.Done()
			local := make([]byte, 4096)
			for i := 0; i < 50; i++ {
				// Two goroutines per shard, plus everyone crossing the
				// flush barrier.
				lba := int64((g%2)*64 + i%64)
				if _, err := r.WriteBlock(lba, local); err != nil {
					t.Error(err)
					return
				}
				if err := r.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := inner[0].writes + inner[1].writes; got != 200 {
		t.Fatalf("writes = %d, want 200", got)
	}
	if inner[0].flushes != 200 || inner[1].flushes != 200 {
		t.Fatalf("flushes = %d/%d, want 200/200", inner[0].flushes, inner[1].flushes)
	}
}

// sizedBackend is a recordBackend with a configurable size, for the
// uniformity checks.
type sizedBackend struct {
	recordBackend
	blocks int64
}

func (b *sizedBackend) Blocks() int64 { return b.blocks }

// TestShardRouterRejectsRaggedShards pins the uniformity requirement.
func TestShardRouterRejectsRaggedShards(t *testing.T) {
	if _, err := NewShardRouter(nil); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := NewShardRouter([]Backend{&sizedBackend{blocks: 64}, &sizedBackend{blocks: 32}}); err == nil {
		t.Error("ragged shard sizes accepted")
	}
	if _, err := NewShardRouter([]Backend{&sizedBackend{blocks: 0}}); err == nil {
		t.Error("zero-size shard accepted")
	}
}

// TestShardRouterFlushError pins first-error-wins across the barrier.
func TestShardRouterFlushError(t *testing.T) {
	bad := &recordBackend{fail: errTestFlush}
	r, err := NewShardRouter([]Backend{&recordBackend{}, bad})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err == nil || !strings.Contains(err.Error(), "shard 1 flush") {
		t.Fatalf("Flush error = %v, want shard 1 flush wrap", err)
	}
	// The barrier must have released: a second flush still runs.
	if err := r.Flush(); err == nil {
		t.Fatal("second Flush returned nil; want the persistent error again")
	}
	if bad.flushes != 2 {
		t.Fatalf("bad shard flushed %d times, want 2", bad.flushes)
	}
}
