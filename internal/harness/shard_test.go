package harness

import (
	"fmt"
	"reflect"
	"testing"

	"icash/internal/core"
	"icash/internal/fault"
	"icash/internal/sim"
	"icash/internal/workload"
)

// Sharded scoreboard-equality battery: at every shard count, the run's
// numbers must be identical whatever the worker count — ForEachPoint
// fans the per-shard populate and the per-point builds, and none of it
// may change a simulated value. Under -race these tests double as the
// data-race proof for the per-shard fan (fresh generators, per-shard
// accountants, frozen clock).

func TestRunBenchmarkShardedSerialParallelIdentical(t *testing.T) {
	p := workload.SysBench()
	for _, shards := range []int{1, 2, 8} {
		opts := workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42, Shards: shards}
		var runs [][]*Result
		for _, n := range []int{1, 2, 8} {
			opts.Workers = n
			br, err := RunBenchmark(p, opts, []Kind{ICASH})
			if err != nil {
				t.Fatalf("shards %d parallelism %d: %v", shards, n, err)
			}
			if got := br.SysSharded.NumShards(); got != shards {
				t.Fatalf("Options.Shards %d built %d shards", shards, got)
			}
			runs = append(runs, resultsOf(br))
		}
		for i := 1; i < len(runs); i++ {
			if !reflect.DeepEqual(runs[0], runs[i]) {
				t.Fatalf("shards %d: results diverge between parallelism 1 and %d",
					shards, []int{1, 2, 8}[i])
			}
		}
	}
}

// TestShardSweepSerialParallelIdentical pins the whole sweep report —
// every profile, every shard count, the per-shard journal breakout —
// to byte equality across worker counts. The sweep's own populate runs
// through the sharded ForEachPoint fan, so this is the end-to-end
// "same bytes at every shard-worker count" check.
func TestShardSweepSerialParallelIdentical(t *testing.T) {
	opts := workload.Options{Scale: QDSweepScale, MaxOps: 2000, Seed: 42}
	counts := []int{1, 2, 4}
	var reports []string
	for _, n := range []int{1, 2, 8} {
		opts.Workers = n
		out, err := ShardSweep(counts, opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", n, err)
		}
		reports = append(reports, out)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("ShardSweep report diverges between parallelism 1 and %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
				[]int{1, 2, 8}[i], reports[0], reports[i])
		}
	}
}

// TestShardedPopulateMatchesSerial builds the same sharded system twice
// and populates once through the parallel fan and once with the fan
// forced serial; every device byte and every counter must agree, and
// the composed device must serve back exactly the generator's content.
func TestShardedPopulateMatchesSerial(t *testing.T) {
	p := workload.RandRead()
	opts := workload.Options{Scale: 1.0 / 256, MaxOps: 400, Seed: 7}

	build := func(workers int) *System {
		o := opts
		o.Workers, o.Shards = workers, 4
		sys, _, err := BuildPopulated(ICASH, p, o)
		if err != nil {
			t.Fatalf("build+populate (workers=%d): %v", workers, err)
		}
		return sys
	}
	serial := build(1)
	fanned := build(8)

	for i := 0; i < serial.Sharded.NumShards(); i++ {
		a, b := serial.Sharded.Shard(i).Stats, fanned.Sharded.Shard(i).Stats
		if !reflect.DeepEqual(a, b) {
			t.Errorf("shard %d stats diverge between worker counts:\nserial: %+v\nfanned: %+v", i, a, b)
		}
		ka, kb := serial.Sharded.Shard(i).KindCounts(), fanned.Sharded.Shard(i).KindCounts()
		if ka != kb {
			t.Errorf("shard %d kind counts diverge: %+v vs %+v", i, ka, kb)
		}
	}
	if serial.Clock.Now() != fanned.Clock.Now() {
		t.Errorf("clocks diverge: %v vs %v", serial.Clock.Now(), fanned.Clock.Now())
	}

	// Read-back oracle: the composed device serves the generator's
	// content for every populated LBA.
	gen := workload.NewGenerator(p, opts)
	n := gen.DataBlocks()
	if n > fanned.Sharded.Blocks() {
		n = fanned.Sharded.Blocks()
	}
	want := make([]byte, 4096)
	got := make([]byte, 4096)
	for lba := int64(0); lba < n; lba++ {
		gen.Fill(lba, want)
		if _, err := fanned.Sharded.ReadBlock(lba, got); err != nil {
			t.Fatalf("read lba %d: %v", lba, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("content mismatch at lba %d after fanned populate", lba)
		}
	}
}

func TestBuildShardedShapes(t *testing.T) {
	cfg := BuildConfig{DataBlocks: 4096, Shards: 4, VMImageBlocks: 96}
	sys, err := Build(ICASH, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sc := sys.Sharded
	if sc == nil {
		t.Fatal("Sharded not set")
	}
	// 4096/4 = 1024, aligned up to a multiple of 96 -> 1056.
	if sc.ShardBlocks() != 1056 {
		t.Errorf("ShardBlocks = %d, want 1056 (1024 aligned to 96)", sc.ShardBlocks())
	}
	if len(sys.SSDs) != 4 || len(sys.HDDs) != 4 || len(sys.ShardCPUs) != 4 {
		t.Errorf("per-shard slices sized %d/%d/%d, want 4/4/4",
			len(sys.SSDs), len(sys.HDDs), len(sys.ShardCPUs))
	}
	// Station namespaces: every station name carries its shard prefix.
	for _, st := range sys.Stations {
		name := st.Name()
		if name[0] != 's' || name[2] != '.' {
			t.Errorf("station %q lacks a shard prefix", name)
		}
	}
	wantStations := 4 * (4 + 1) // 4 channels + 1 actuator per shard
	if len(sys.Stations) != wantStations {
		t.Errorf("stations = %d, want %d", len(sys.Stations), wantStations)
	}
}

// TestBuildOneShard pins what the one-shard array — the paper's
// prototype, and every default run — looks like: the same composed
// handle as any other shard count, station and fault-station names
// without a shard prefix, and exactly the budgets the caller asked for.
// The per-shard floors (64 SSD blocks, 512 B/block delta RAM, 512 KB
// data RAM) exist to keep a divided slice viable; applied to an
// undivided budget they would silently resize every chaos, scrub and
// bit-rot soak, which deliberately runs a 256 KB data cache.
func TestBuildOneShard(t *testing.T) {
	p := workload.SysBench()
	opts := workload.Options{Scale: 1.0 / 256, MaxOps: 600, Seed: 42}
	for _, shards := range []int{0, 1} {
		gen := workload.NewGenerator(p, opts)
		var got core.Config
		// Windows on the unprefixed names: they slow the fault injectors
		// only if a one-shard build names their stations "ssd" and "hdd0".
		plan := &fault.Schedule{Windows: []fault.Window{
			{Station: "ssd", To: sim.Time(3600 * sim.Second), Factor: 2},
			{Station: "hdd0", To: sim.Time(3600 * sim.Second), Factor: 2},
		}}
		sys, err := Build(ICASH, BuildConfig{
			DataBlocks:     gen.DataBlocks(),
			Shards:         shards,
			SSDCacheBlocks: 32,
			DeltaRAMBytes:  64 << 10,
			DataRAMBytes:   256 << 10,
			Faults:         plan,
			SlowDetector:   true,
			Tune:           func(c *core.Config) { got = *c },
		})
		if err != nil {
			t.Fatalf("build (Shards=%d): %v", shards, err)
		}
		sc := sys.Sharded
		if sc == nil || sc.NumShards() != 1 || sc.Blocks() != gen.DataBlocks() {
			t.Fatalf("Shards=%d: want one %d-block shard, got %+v", shards, gen.DataBlocks(), sc)
		}
		if sys.SSD != nil || len(sys.SSDs) != 1 || len(sys.HDDs) != 1 || len(sys.ShardCPUs) != 1 {
			t.Errorf("device handles: SSD=%v SSDs=%d HDDs=%d ShardCPUs=%d, want nil/1/1/1",
				sys.SSD, len(sys.SSDs), len(sys.HDDs), len(sys.ShardCPUs))
		}
		if got.SSDBlocks != 32 || got.DeltaRAMBytes != 64<<10 || got.DataRAMBytes != 256<<10 {
			t.Errorf("budgets SSD=%d deltaRAM=%d dataRAM=%d, want the caller's 32 / %d / %d",
				got.SSDBlocks, got.DeltaRAMBytes, got.DataRAMBytes, 64<<10, 256<<10)
		}
		var names []string
		for _, st := range sys.Stations {
			names = append(names, st.Name())
		}
		want := []string{"ssd.ch0", "ssd.ch1", "ssd.ch2", "ssd.ch3", "hdd0"}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("stations %v, want %v", names, want)
		}
		if !reflect.DeepEqual(sys.shardSSDNames, []string{"ssd"}) {
			t.Errorf("detector SSD names %v, want [ssd]", sys.shardSSDNames)
		}
		sys.SetFill(gen.Fill)
		if err := Populate(sys, gen); err != nil {
			t.Fatalf("populate: %v", err)
		}
		res, err := Run(sys, gen)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.SSDFaultStats.SlowOps == 0 || res.HDDFaultStats.SlowOps == 0 {
			t.Errorf("windows on \"ssd\"/\"hdd0\" slowed %d SSD and %d HDD ops; the injectors' stations are not those names",
				res.SSDFaultStats.SlowOps, res.HDDFaultStats.SlowOps)
		}
	}
}

func TestShardStation(t *testing.T) {
	for _, c := range []struct {
		i, n       int
		name, want string
	}{
		{0, 1, "ssd", "ssd"}, {0, 0, "hdd0", "hdd0"}, {0, 1, "", ""},
		{0, 4, "ssd", "s0.ssd"}, {3, 4, "hdd0", "s3.hdd0"}, {2, 4, "", "s2"},
	} {
		if got := ShardStation(c.i, c.n, c.name); got != c.want {
			t.Errorf("ShardStation(%d, %d, %q) = %q, want %q", c.i, c.n, c.name, got, c.want)
		}
	}
}

func TestShardSweepScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("shard sweep in -short mode")
	}
	opts := workload.Options{Seed: 42}
	out, err := ShardSweep([]int{1, 4}, opts)
	if err != nil {
		t.Fatalf("ShardSweep: %v", err)
	}
	// The acceptance bound: 4 shards must at least double both the
	// random-read and random-write throughput of the one-shard
	// build at QD>=8. Parse the speedup column of each table's last row.
	var speedups []float64
	for _, line := range splitLines(out) {
		var n int
		var reqs, sp float64
		if _, err := fmt.Sscanf(line, "shards=%d req/s=%f speedup=%fx", &n, &reqs, &sp); err == nil && n == 4 {
			speedups = append(speedups, sp)
		}
	}
	if len(speedups) != 2 {
		t.Fatalf("expected 2 shards=4 rows in sweep output, got %d:\n%s", len(speedups), out)
	}
	for i, sp := range speedups {
		if sp < 2.0 {
			t.Errorf("profile %d: shards=4 speedup %.2fx < 2x:\n%s", i, sp, out)
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
