package harness

import (
	"reflect"
	"runtime"
	"testing"

	"icash/internal/race"
	"icash/internal/workload"
)

// determinismCases covers both issue paths (serial QD=1, event-engine
// QD>1, per-VM streams) on a single-machine and a multi-VM profile.
func determinismCases() []struct {
	name string
	p    workload.Profile
	opts workload.Options
} {
	return []struct {
		name string
		p    workload.Profile
		opts workload.Options
	}{
		{"sysbench-qd1", workload.SysBench(),
			workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42}},
		{"sysbench-qd8", workload.SysBench(),
			workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42, QueueDepth: 8}},
		{"tpcc5vm-streams", workload.TPCC5VM(),
			workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42, QueueDepth: 4, StreamPerVM: true}},
	}
}

// TestDeterminismAcrossGOMAXPROCS runs every system on each case
// repeatedly under different GOMAXPROCS settings and requires the
// Result structs — every counter, histogram bucket, and station
// snapshot — to be byte-identical. Run under -race this also proves the
// engine shares no state across goroutines: simulated time is
// single-threaded by construction.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, tc := range determinismCases() {
		t.Run(tc.name, func(t *testing.T) {
			var first map[Kind]*Result
			for run, procs := range []int{1, runtime.NumCPU(), 2} {
				runtime.GOMAXPROCS(procs)
				br, err := RunBenchmark(tc.p, tc.opts, nil)
				if err != nil {
					t.Fatalf("run %d (GOMAXPROCS=%d): %v", run, procs, err)
				}
				if run == 0 {
					first = br.Results
					continue
				}
				for _, k := range AllKinds() {
					if !reflect.DeepEqual(first[k], br.Results[k]) {
						t.Errorf("run %d (GOMAXPROCS=%d): %s result differs:\n got %+v\nwant %+v",
							run, procs, k, br.Results[k], first[k])
					}
				}
			}
		})
	}
}

// TestScanOutcomePinned holds what the similarity scan counted and did
// on an oltp-shaped, a randread-shaped and a mail-shaped run (the repo
// benchmark's sizes, seed 42) to constants captured at the commit before
// the scan learned to skip its body on an attached window. A scan that
// stopped accounting for a window it did not walk, or skipped a window
// that had work, moves one of them.
func TestScanOutcomePinned(t *testing.T) {
	if race.Enabled {
		t.Skip("one goroutine's counters; the plain suite pins them at a tenth of the time")
	}
	type outcome struct {
		Scans, ScanCandidates, ScanDeltaRejects, AssocFormed, RefsSelected, RefsDemoted int64
	}
	randread := workload.RandRead()
	randread.VMs = 64
	for _, tc := range []struct {
		name string
		p    workload.Profile
		opts workload.Options
		want outcome
	}{
		{"oltp", workload.SysBench(),
			workload.Options{Scale: 1.0 / 24, Seed: 42},
			outcome{Scans: 13, ScanCandidates: 52000, ScanDeltaRejects: 697}},
		{"randread", randread,
			workload.Options{Scale: 1.0 / 20, Seed: 42, QueueDepth: 8, StreamPerVM: true, Shards: 4},
			outcome{Scans: 44, ScanCandidates: 135168}},
		{"mail", workload.LoadSim(),
			workload.Options{Scale: 1.0 / 1024, Seed: 42},
			outcome{Scans: 13, ScanCandidates: 38400, ScanDeltaRejects: 73}},
	} {
		br, err := RunBenchmark(tc.p, tc.opts, []Kind{ICASH})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := br.Results[ICASH].ICASHStats
		got := outcome{st.Scans, st.ScanCandidates, st.ScanDeltaRejects, st.AssocFormed, st.RefsSelected, st.RefsDemoted}
		if got != tc.want {
			t.Errorf("%s: scan outcome %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
