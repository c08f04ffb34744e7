package harness

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/fault"
	"icash/internal/metrics"
	"icash/internal/sim"
	"icash/internal/workload"
)

// histPin is what a pinned run holds a histogram to.
type histPin struct {
	Count    int64
	Sum, P99 sim.Duration
}

func pinHist(h *metrics.Histogram) histPin { return histPin{h.Count(), h.Sum(), h.P99()} }

// runPin condenses a sharded I-CASH run: the request counts, the
// elapsed time, the three histograms, the block-population mix, and
// FNV-1a digests of the rendered controller stats and station table.
type runPin struct {
	Ops, Reads, Writes int64
	Elapsed            sim.Duration
	Read, Write, Wait  histPin
	Kinds              core.KindCounts
	Stats, Stations    uint64
}

func digest(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return h.Sum64()
}

func pinRun(r *Result) runPin {
	return runPin{
		Ops: r.Ops, Reads: r.Reads, Writes: r.Writes, Elapsed: r.Elapsed,
		Read: pinHist(&r.ReadHist), Write: pinHist(&r.WriteHist), Wait: pinHist(&r.QueueWait),
		Kinds: r.KindCounts, Stats: digest(*r.ICASHStats), Stations: digest(r.Stations),
	}
}

// groupCases are the two sharded multi-stream points the split is
// pinned on: a randread-shards4-shaped run (64 per-VM streams at QD 8
// over 4 shards, four groups) and Fig 15's TPC-C VMs as streams over 4
// shards (three non-empty groups).
func groupCases() []struct {
	name string
	p    workload.Profile
	opts workload.Options
	want runPin
} {
	randread := workload.RandRead()
	randread.VMs = 64
	return []struct {
		name string
		p    workload.Profile
		opts workload.Options
		want runPin
	}{
		{"randread-64vm-shards4", randread,
			workload.Options{Scale: 1.0 / 128, MaxOps: 6000, Seed: 42, QueueDepth: 8, StreamPerVM: true, Shards: 4},
			runPin{Ops: 6000, Reads: 5591, Elapsed: 1354000,
				Read: histPin{6000, 57020000, 30720}, Wait: histPin{5591, 3315000, 15360},
				Kinds: core.KindCounts{Reference: 120, Associate: 1800},
				Stats: 0x56224894cedac58c, Stations: 0xc8d243350ce7fd51}},
		{"tpcc5vm-shards4", workload.TPCC5VM(),
			workload.Options{Scale: 1.0 / 256, MaxOps: 2000, Seed: 42, QueueDepth: 8, StreamPerVM: true, Shards: 4},
			runPin{Ops: 1597, Reads: 1883, Writes: 3536, Elapsed: 159307342,
				Read: histPin{5589, 969256643, 5767168}, Write: histPin{3536, 1959177537, 15728640},
				Wait:  histPin{5419, 2718177506, 15728640},
				Kinds: core.KindCounts{Reference: 332, Associate: 4852, Independent: 27},
				Stats: 0xe2ec5f9fa227de72, Stations: 0x386e68bbdc6f0d35}},
	}
}

// TestShardGroupsMatchParent holds both points to constants captured
// before runs were split into shard groups, at every worker count: the
// groups' histories, merged in group order, are the one loop's history.
func TestShardGroupsMatchParent(t *testing.T) {
	for _, tc := range groupCases() {
		for _, workers := range []int{1, 2, 8} {
			opts := tc.opts
			opts.Workers = workers
			sys, gen, err := BuildPopulated(ICASH, tc.p, opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			res, err := Run(sys, gen)
			if err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, workers, err)
			}
			if got := pinRun(res); got != tc.want {
				t.Errorf("%s workers %d:\n got %#v\nwant %#v", tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestRunGroups pins which runs split and into how many groups.
func TestRunGroups(t *testing.T) {
	randread := workload.RandRead()
	randread.VMs = 64
	perVM := workload.Options{Scale: 1.0 / 128, Seed: 42, QueueDepth: 8, StreamPerVM: true, Shards: 4}
	oneShard := perVM
	oneShard.Shards = 1
	oneStream := perVM
	oneStream.StreamPerVM = false
	for _, tc := range []struct {
		name string
		p    workload.Profile
		opts workload.Options
		cfg  func(*BuildConfig)
		sys  func(*System)
		want int
	}{
		{"one shard", randread, oneShard, nil, nil, 1},
		{"64 per-VM streams on 4 shards", randread, perVM, nil, nil, 4},
		{"5 VMs on 4 shards", workload.TPCC5VM(), perVM, nil, nil, 3},
		{"one stream over 4 shards", workload.TPCC5VM(), oneStream, nil, nil, 1},
		{"scrubber armed", randread, perVM, nil,
			func(s *System) { s.Sharded.SetScrub(core.ScrubConfig{Interval: sim.Millisecond}) }, 1},
		{"fault injector", randread, perVM, func(c *BuildConfig) { c.FaultHDD = &fault.Config{} }, nil, 1},
		{"slow-device detector", randread, perVM, func(c *BuildConfig) { c.SlowDetector = true }, nil, 1},
		{"wrapped device", randread, perVM, nil, func(s *System) { s.Dev = &countingDev{Device: s.Dev} }, 1},
	} {
		cfg := ConfigForProfile(tc.p, tc.opts)
		if tc.cfg != nil {
			tc.cfg(&cfg)
		}
		sys, err := Build(ICASH, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.sys != nil {
			tc.sys(sys)
		}
		groups := runGroups(sys, workload.NewGenerator(tc.p, tc.opts).Streams())
		if len(groups) != tc.want {
			t.Errorf("%s: %d groups, want %d", tc.name, len(groups), tc.want)
		}
	}
}

// countingDev counts the block calls it passes through in plain fields,
// as unsynchronised as the benchmark's span-recording wrapper.
type countingDev struct {
	blockdev.Device
	calls int64
}

func (c *countingDev) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	c.calls++
	return c.Device.ReadBlock(lba, buf)
}

func (c *countingDev) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	c.calls++
	return c.Device.WriteBlock(lba, buf)
}

// TestShardGroupsWrappedDevice runs the 4-shard per-VM point with
// sys.Dev wrapped by a device that is not safe for concurrent use — the
// shape of the benchmark's traced pass. The run must stay one group
// (under -race a split run races on the counter) and return the same
// Result as the unwrapped, split run.
func TestShardGroupsWrappedDevice(t *testing.T) {
	tc := groupCases()[0]
	run := func(wrap bool) (*Result, *countingDev) {
		opts := tc.opts
		opts.Workers = 8
		sys, gen, err := BuildPopulated(ICASH, tc.p, opts)
		if err != nil {
			t.Fatal(err)
		}
		var dev *countingDev
		if wrap {
			dev = &countingDev{Device: sys.Dev}
			sys.Dev = dev
		}
		res, err := Run(sys, gen)
		if err != nil {
			t.Fatal(err)
		}
		return res, dev
	}
	plain, _ := run(false)
	wrapped, dev := run(true)
	if !reflect.DeepEqual(plain, wrapped) {
		t.Errorf("wrapped run differs from the split run:\n got %+v\nwant %+v", wrapped, plain)
	}
	if dev.calls != wrapped.Reads+wrapped.Writes {
		t.Errorf("wrapper saw %d block calls for %d reads and %d writes", dev.calls, wrapped.Reads, wrapped.Writes)
	}
}
