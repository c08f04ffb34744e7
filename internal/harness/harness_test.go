package harness

import (
	"strings"
	"testing"

	"icash/internal/race"
	"icash/internal/workload"
)

// testOpts keeps harness tests fast (1/256 of the paper's sizes).
var testOpts = workload.Options{Scale: 1.0 / 256, Seed: 42}

func runBench(t *testing.T, p workload.Profile) *BenchmarkRun {
	t.Helper()
	br, err := RunBenchmark(p, testOpts, nil)
	if err != nil {
		t.Fatalf("RunBenchmark(%s): %v", p.Name, err)
	}
	for _, k := range AllKinds() {
		r := br.Results[k]
		if r == nil {
			t.Fatalf("%s: missing result for %s", p.Name, k)
		}
		t.Logf("%-9s tx/s=%7.1f rd=%8.1fµs wr=%7.1fµs ssdW=%7d elapsed=%v",
			k, r.TxnPerSec, r.ReadHist.Mean().Microseconds(), r.WriteHist.Mean().Microseconds(),
			r.SSDHostWrites, r.Elapsed)
	}
	return br
}

func tx(br *BenchmarkRun, k Kind) float64 { return br.Results[k].TxnPerSec }

// TestSysBenchShape asserts the paper's Figure 6(a)/7 ordering: I-CASH
// fastest, then Fusion-io, then the SSD caches, RAID0 behind them; and
// I-CASH's writes are far cheaper than everyone's.
func TestSysBenchShape(t *testing.T) {
	br := runBench(t, workload.SysBench())
	if !(tx(br, ICASH) > tx(br, FusionIO)) {
		t.Errorf("I-CASH (%f) must beat FusionIO (%f) on SysBench", tx(br, ICASH), tx(br, FusionIO))
	}
	if !(tx(br, FusionIO) > tx(br, LRU) && tx(br, LRU) > tx(br, RAID0)) {
		t.Errorf("ordering FusionIO > LRU > RAID violated: %f %f %f",
			tx(br, FusionIO), tx(br, LRU), tx(br, RAID0))
	}
	ic, fio := br.Results[ICASH], br.Results[FusionIO]
	if ic.WriteHist.Mean() >= fio.WriteHist.Mean() {
		t.Errorf("I-CASH write latency %v must undercut FusionIO %v",
			ic.WriteHist.Mean(), fio.WriteHist.Mean())
	}
	// Table 6: I-CASH performs a small fraction of FusionIO's SSD writes.
	if ic.SSDHostWrites*2 > fio.SSDHostWrites {
		t.Errorf("I-CASH SSD writes %d not well below FusionIO %d",
			ic.SSDHostWrites, fio.SSDHostWrites)
	}
	// §5.1: the vast majority of blocks become associates.
	_, assoc, _ := ic.KindCounts.Fractions()
	if assoc < 0.5 {
		t.Errorf("associate fraction %f, paper reports 85%%", assoc)
	}
}

// TestTPCCShape asserts Figure 10(a)'s top group: I-CASH and Fusion-io
// lead (within a whisker of each other), both far ahead of RAID and the
// caches.
func TestTPCCShape(t *testing.T) {
	br := runBench(t, workload.TPCC())
	if tx(br, ICASH) < 0.9*tx(br, FusionIO) {
		t.Errorf("I-CASH (%f) must be within 10%% of FusionIO (%f)", tx(br, ICASH), tx(br, FusionIO))
	}
	if !(tx(br, ICASH) > 1.5*tx(br, RAID0)) {
		t.Errorf("I-CASH must clearly beat RAID0: %f vs %f", tx(br, ICASH), tx(br, RAID0))
	}
}

// TestRUBiSShape asserts Figure 14: on read-dominated RUBiS the pure
// SSD and I-CASH form the leading pair (the paper has Fusion-io ahead
// by 10%; the simulation lands them within a few percent — a tie at a
// tenth of the SSD space), both far ahead of the caches and RAID.
func TestRUBiSShape(t *testing.T) {
	br := runBench(t, workload.RUBiS())
	lead, chase := tx(br, FusionIO), tx(br, ICASH)
	if chase > lead {
		lead, chase = chase, lead
	}
	if chase < 0.85*lead {
		t.Errorf("FusionIO (%f) and I-CASH (%f) should be within 15%% on RUBiS",
			tx(br, FusionIO), tx(br, ICASH))
	}
	if !(tx(br, ICASH) > tx(br, LRU) && tx(br, ICASH) > tx(br, Dedup) && tx(br, ICASH) > tx(br, RAID0)) {
		t.Error("I-CASH must beat the caches and RAID on RUBiS")
	}
}

// TestMultiVMShape asserts Figures 15/16: with five cloned VMs, I-CASH's
// cross-image reference sharing makes it the fastest system.
func TestMultiVMShape(t *testing.T) {
	for _, p := range []workload.Profile{workload.TPCC5VM(), workload.RUBiS5VM()} {
		br := runBench(t, p)
		if !(tx(br, ICASH) > tx(br, FusionIO)) {
			t.Errorf("%s: I-CASH (%f) must beat FusionIO (%f)", p.Name, tx(br, ICASH), tx(br, FusionIO))
		}
		for _, k := range []Kind{RAID0, Dedup, LRU} {
			if !(tx(br, ICASH) > 2*tx(br, k)) {
				t.Errorf("%s: I-CASH (%f) must be far ahead of %s (%f)", p.Name, tx(br, ICASH), k, tx(br, k))
			}
		}
	}
}

// TestDeterminism: identical options reproduce identical results.
func TestDeterminism(t *testing.T) {
	p := workload.SysBench()
	a, err := RunBenchmark(p, testOpts, []Kind{ICASH})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmark(p, testOpts, []Kind{ICASH})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Results[ICASH], b.Results[ICASH]
	if ra.Elapsed != rb.Elapsed || ra.SSDHostWrites != rb.SSDHostWrites ||
		ra.ReadHist.Mean() != rb.ReadHist.Mean() {
		t.Fatalf("non-deterministic: %v/%d vs %v/%d",
			ra.Elapsed, ra.SSDHostWrites, rb.Elapsed, rb.SSDHostWrites)
	}
}

// TestExperimentRegistry checks the per-experiment index is complete
// and renders.
func TestExperimentRegistry(t *testing.T) {
	wantIDs := []string{
		"fig6a", "fig6b", "fig7", "fig8a", "fig8b", "fig9",
		"fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16",
		"table5-hadoop", "table5-tpcc",
		"table6-sysbench", "table6-hadoop", "table6-tpcc", "table6-specsfs",
	}
	for _, id := range wantIDs {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Errorf("experiment %s missing from the registry", id)
			continue
		}
		if _, ok := workload.ByName(e.Benchmark); !ok {
			t.Errorf("%s references unknown benchmark %q", id, e.Benchmark)
		}
	}
	if len(Experiments) != len(wantIDs) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments), len(wantIDs))
	}
}

// TestRunExperimentsRejectsUnknown checks that an ID naming no
// experiment fails the whole call up front: nothing is run or rendered
// (not even the valid fig6a beside it), and the error names every
// unknown ID and the valid list.
func TestRunExperimentsRejectsUnknown(t *testing.T) {
	out, err := RunExperiments([]string{"fig6a", "fig99", "table5"}, testOpts)
	if err == nil {
		t.Fatal("unknown experiment IDs accepted")
	}
	if out != "" {
		t.Fatalf("rendered a report despite unknown IDs:\n%s", out)
	}
	for _, want := range []string{`"fig99"`, `"table5"`, "table5-hadoop", "fig16"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if strings.Contains(err.Error(), `"fig6a"`) {
		t.Errorf("error %q names the valid fig6a as unknown", err)
	}
}

// TestRunExperimentsRenders runs one benchmark's experiments end to end
// through the public entry point.
func TestRunExperimentsRenders(t *testing.T) {
	out, err := RunExperiments([]string{"fig6a", "fig6b", "fig7"}, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig6a", "I-CASH", "paper", "block mix"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestPageCache covers the guest page-cache model.
func TestPageCache(t *testing.T) {
	pc := newPageCache(2)
	if pc.lookup(1) {
		t.Fatal("empty cache hit")
	}
	pc.insert(1)
	pc.insert(2)
	if !pc.lookup(1) || !pc.lookup(2) {
		t.Fatal("expected hits")
	}
	pc.insert(3) // evicts LRU (1 was looked up before 2... order: 2,1 -> evict 1? lookup order made 2 most recent)
	hits := 0
	for _, lba := range []int64{1, 2, 3} {
		if pc.lookup(lba) {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("expected exactly 2 survivors, got %d", hits)
	}
	if pc.hits != 4 || pc.misses != 2 {
		t.Fatalf("%d hits / %d misses, want 4 / 2", pc.hits, pc.misses)
	}
	// Disabled cache.
	off := newPageCache(0)
	off.insert(5)
	if off.lookup(5) {
		t.Fatal("zero-capacity cache must never hit")
	}
}

// TestAllocGatePageCache: once the page cache is full, lookups and
// inserts allocate nothing, because an insert recycles the evicted
// victim's node.
func TestAllocGatePageCache(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const capacity = 64
	pc := newPageCache(capacity)
	next := int64(0)
	for ; next < capacity; next++ {
		pc.insert(next)
	}
	op := func() {
		pc.lookup(next - 1)        // hit at the front
		pc.lookup(next - capacity) // hit at the back
		pc.insert(next - 1)        // already cached
		if pc.lookup(next) {       // miss, then evict and recycle
			t.Fatalf("lba %d hit before its insert", next)
		}
		pc.insert(next)
		next++
	}
	if got := testing.AllocsPerRun(1000, op); got != 0 {
		t.Fatalf("warm lookup+insert allocated %v objects/op, want 0", got)
	}
	if pc.hits == 0 || len(pc.index) != capacity {
		t.Fatalf("%d hits, %d cached; want hits and a full cache", pc.hits, len(pc.index))
	}
}

// TestBuildValidation covers builder error paths.
func TestBuildValidation(t *testing.T) {
	if _, err := Build(ICASH, BuildConfig{}); err == nil {
		t.Error("zero DataBlocks must fail")
	}
	if _, err := Build(Kind(99), BuildConfig{DataBlocks: 1024}); err == nil {
		t.Error("unknown kind must fail")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind string")
	}
}
