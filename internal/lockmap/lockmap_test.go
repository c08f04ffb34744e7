package lockmap

import (
	"sync"
	"testing"
)

// TestMutualExclusion hammers a handful of addresses from many
// goroutines; each address guards its own plain counter slot, so any
// exclusion failure is a lost update (and a -race report).
func TestMutualExclusion(t *testing.T) {
	var lm LockMap
	const (
		addrs   = 8
		workers = 16
		rounds  = 200
	)
	counts := make([]int, addrs)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				addr := uint64((w + r) % addrs)
				lm.Acquire(addr)
				counts[addr]++
				lm.Release(addr)
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != workers*rounds {
		t.Fatalf("lost updates: counted %d increments, want %d", total, workers*rounds)
	}
}

// TestSameBucketIndependence proves two addresses that share a bucket
// (addr and addr+nBuckets) do not exclude each other.
func TestSameBucketIndependence(t *testing.T) {
	var lm LockMap
	lm.Acquire(3)
	done := make(chan struct{})
	go func() {
		lm.Acquire(3 + nBuckets) // same bucket, different address: must not block
		lm.Release(3 + nBuckets)
		close(done)
	}()
	<-done
	lm.Release(3)
}

// TestReleaseNotHeldPanics pins the double-release guard.
func TestReleaseNotHeldPanics(t *testing.T) {
	var lm LockMap
	lm.Acquire(1)
	lm.Release(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of unheld address did not panic")
		}
	}()
	lm.Release(1)
}
