package harness

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/sim"
	"icash/internal/workload"
)

// TestStreamStageMatchesInline runs one SysBench stream — multi-block
// requests, page-cache hits, fresh writes — at QD 1 and QD 8, inline
// (one worker) and through the stream stage (two), and holds both to
// the same Result and to constants captured before the stage existed.
func TestStreamStageMatchesInline(t *testing.T) {
	p := workload.SysBench()
	if p.AvgReadBytes <= blockdev.BlockSize || p.FreshWriteFrac <= 0 {
		t.Fatal("SysBench no longer issues multi-block reads and fresh writes")
	}
	for _, tc := range []struct {
		qd   int
		want runPin
	}{
		{1, runPin{Ops: 3000, Reads: 1403, Writes: 1498, Elapsed: 1817849558,
			Read: histPin{3536, 11729000, 15000}, Write: histPin{1498, 6120558, 73728},
			Wait:  histPin{2901, 1059558, 3840},
			Kinds: core.KindCounts{Reference: 63, Associate: 887, Independent: 10},
			Stats: 0xa12bb39afb1be736, Stations: 0x725c385cee1e2a14}},
		{8, runPin{Ops: 3000, Reads: 1403, Writes: 1498, Elapsed: 227556000,
			Read: histPin{3536, 11829000, 15360}, Write: histPin{1498, 6692744, 73728},
			Wait:  histPin{2901, 1731744, 4608},
			Kinds: core.KindCounts{Reference: 63, Associate: 887, Independent: 10},
			Stats: 0xa12bb39afb1be736, Stations: 0xcf9a311afaf8d402}},
	} {
		var inline *Result
		for _, workers := range []int{1, 2} {
			opts := workload.Options{Scale: 1.0 / 256, MaxOps: 3000, Seed: 42, QueueDepth: tc.qd, Workers: workers}
			sys, gen, err := BuildPopulated(ICASH, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sys, gen)
			if err != nil {
				t.Fatalf("QD %d workers %d: %v", tc.qd, workers, err)
			}
			if res.PageCacheHitRatio != 0.6032239819004525 || res.ReadHist.Count()+res.WriteHist.Count() <= res.Ops {
				t.Fatalf("QD %d workers %d: page-cache hit ratio %v, %d blocks for %d requests",
					tc.qd, workers, res.PageCacheHitRatio, res.ReadHist.Count()+res.WriteHist.Count(), res.Ops)
			}
			if got := pinRun(res); got != tc.want {
				t.Errorf("QD %d workers %d:\n got %#v\nwant %#v", tc.qd, workers, got, tc.want)
			}
			if inline == nil {
				inline = res
			} else if !reflect.DeepEqual(res, inline) {
				t.Errorf("QD %d: stream stage result differs from inline:\n got %+v\nwant %+v", tc.qd, res, inline)
			}
		}
	}
}

// failingDev fails the k-th block write it sees.
type failingDev struct {
	blockdev.Device
	writes, k int
}

var errKthWrite = errors.New("injected write failure")

func (f *failingDev) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if f.writes++; f.writes == f.k {
		return 0, errKthWrite
	}
	return f.Device.WriteBlock(lba, buf)
}

// TestStreamStageStopsOnError fails a write early, mid-run and late in
// the stream, on one SysBench stream at QD 1 and 8 and on the five
// TPC-C streams of one shard (one producer feeding five streams): Run
// must return that error, and the producer must have returned, however
// far ahead of the pump it was.
func TestStreamStageStopsOnError(t *testing.T) {
	base := runtime.NumGoroutine()
	vms := groupCases()[2] // tpcc5vm-shards1
	for _, tc := range []struct {
		name string
		p    workload.Profile
		opts workload.Options
	}{
		{"sysbench-qd1", workload.SysBench(), workload.Options{Scale: 1.0 / 256, MaxOps: 2000, Seed: 7, QueueDepth: 1}},
		{"sysbench-qd8", workload.SysBench(), workload.Options{Scale: 1.0 / 256, MaxOps: 2000, Seed: 7, QueueDepth: 8}},
		{vms.name, vms.p, vms.opts},
	} {
		for _, k := range []int{1, 7, 500} {
			opts := tc.opts
			opts.Workers = 2
			sys, gen, err := BuildPopulated(ICASH, tc.p, opts)
			if err != nil {
				t.Fatal(err)
			}
			sys.Dev = &failingDev{Device: sys.Dev, k: k}
			if _, err := Run(sys, gen); !errors.Is(err, errKthWrite) {
				t.Fatalf("%s write %d: Run returned %v, want the injected failure", tc.name, k, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%s write %d: %d goroutines after Run, %d before", tc.name, k, runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
