package harness

import (
	"testing"

	"icash/internal/baseline"
	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/hdd"
	"icash/internal/raid"
	"icash/internal/sim"
	"icash/internal/ssd"
)

// logRecorder sums the service time of the successful HDD writes that
// land in the controller's log region.
type logRecorder struct {
	blockdev.Device
	logStart int64
	writes   int
	time     sim.Duration
}

func (r *logRecorder) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	d, err := r.Device.WriteBlock(lba, buf)
	if err == nil && lba >= r.logStart {
		r.writes++
		r.time += d
	}
	return d, err
}

// TestLatencyConservation is the accounting invariant of every layer
// that serves blocks: each successful request is counted once and its
// returned latency is charged in full, so a layer's Stats sum to what
// its callers were told. The controller additionally charges every
// journal write's device time to its commit meter.
func TestLatencyConservation(t *testing.T) {
	const (
		blocks = 256
		reads  = 700
		writes = 1300
	)
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant(clock)
	newSSD := func() *ssd.Device { return ssd.New(ssd.DefaultConfig(blocks)) }
	newHDD := func() *hdd.Device { return hdd.New(hdd.DefaultConfig(blocks)) }

	members := make([]blockdev.Device, raidDisks)
	for i := range members {
		members[i] = newHDD()
	}
	arr, err := raid.NewArray0(members, 32)
	if err != nil {
		t.Fatal(err)
	}

	ccfg := icashConfig(blocks, 64, 1<<20, 1<<20, 0)
	rec := &logRecorder{Device: hdd.New(hdd.DefaultConfig(blocks + ccfg.LogBlocks)), logStart: blocks}
	ctrl, err := core.New(ccfg, ssd.New(cachePartitionConfig(64)), rec, clock, cpu)
	if err != nil {
		t.Fatal(err)
	}

	ssdDev, hddDev := newSSD(), newHDD()
	pure := baseline.NewPureSSD(newSSD(), cpu)
	lru := baseline.NewLRUCache(ssd.New(ssd.DefaultConfig(64)), newHDD(), cpu)
	dedup := baseline.NewDedupCache(ssd.New(ssd.DefaultConfig(64)), newHDD(), cpu)

	for _, tc := range []struct {
		name  string
		dev   blockdev.Device
		stats func() blockdev.Stats
	}{
		{"ssd", ssdDev, func() blockdev.Stats { return ssdDev.Stats.Stats }},
		{"hdd", hddDev, func() blockdev.Stats { return hddDev.Stats.Stats }},
		{"raid0", arr, func() blockdev.Stats { return arr.Stats.Stats }},
		{"puressd", pure, func() blockdev.Stats { return pure.Stats }},
		{"lru", lru, func() blockdev.Stats { return lru.Stats.Stats }},
		{"dedup", dedup, func() blockdev.Stats { return dedup.Stats.Stats }},
		{"icash", ctrl, func() blockdev.Stats { return ctrl.Stats.Stats }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRand(9)
			buf := make([]byte, blockdev.BlockSize)
			var nr, nw int64
			var readTime, writeTime sim.Duration
			for nr < reads || nw < writes {
				lba := int64(rng.Intn(int(tc.dev.Blocks())))
				if nw < writes && (nr == reads || rng.Intn(3) > 0) {
					rng.Bytes(buf[:512]) // a small change per write, so deltas form
					d, err := tc.dev.WriteBlock(lba, buf)
					if err != nil {
						t.Fatalf("write %d: %v", lba, err)
					}
					nw++
					writeTime += d
					continue
				}
				d, err := tc.dev.ReadBlock(lba, buf)
				if err != nil {
					t.Fatalf("read %d: %v", lba, err)
				}
				nr++
				readTime += d
			}
			st := tc.stats()
			if st.Reads != reads || st.Writes != writes {
				t.Errorf("counted %d reads / %d writes, issued %d / %d", st.Reads, st.Writes, reads, writes)
			}
			if st.ReadTime != readTime || st.WriteTime != writeTime {
				t.Errorf("charged %v read / %v write, callers were told %v / %v",
					st.ReadTime, st.WriteTime, readTime, writeTime)
			}
		})
	}

	if err := ctrl.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.writes == 0 {
		t.Fatal("no journal write reached the HDD log region")
	}
	if got := ctrl.Stats.CommitWriteTime; got <= 0 || got != rec.time {
		t.Errorf("CommitWriteTime %v, the %d log-region writes took %v", got, rec.writes, rec.time)
	}
}
