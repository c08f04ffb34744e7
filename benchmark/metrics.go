package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The names every later performance claim uses are fixed here and
// nowhere else: BENCHMARK.json is generated from these tables
// (`go run ./benchmark -manifest`), and a test fails when the committed
// file drifts from them.
//
// Two kinds of time, never mixed under one name. sim_* and the counts
// marked S below are on the simulated clock: what the modelled array
// would do, deterministic for a seed, bit-identical across reps. host_*
// and setup_s are wall time of this process (or, on serve-tcp, of a real
// socket to a spawned icash-serve) running the simulator. The model is
// unvalidated against hardware, so no error figure is given.

// metricDecl declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// runSeconds is how long one invocation measures (BENCHMARK.json
// run_seconds): eight or so reps of every workload on the 2-core
// sandbox, and short enough that the driver's 114 runs fit its budget.
const runSeconds = 15

// endToEnd is what a user of the system sees. Every workload emits
// every one, and none can read 0. Metrics that exist only on some
// workloads (read/write-split response times, SSD writes per request,
// TCP latency percentiles) or whose value is a quantised histogram
// bucket (p99) are reported per layer instead — see README.md.
//
// The bounds are three times the widest spread seen over ten seeds on
// any workload (README.md has the table). For the simulated metrics and
// the allocation and heap figures that spread is the seed-to-seed
// difference of the generated stream, not noise: for one seed they
// repeat exactly or nearly so. For the two wall-clock metrics it is the
// sandbox: identical work runs +-15% apart over tens of seconds, so a
// claim on them needs the paired runs of choosing-metrics section 8.
var endToEnd = []metricDecl{
	{"sim_req_per_s", "1/s", "higher", 0.06},
	{"sim_resp_mean_us", "us", "lower", 0.07},
	{"sim_speedup_vs_ssd", "ratio", "higher", 0.06},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"host_alloc_bytes_per_op", "B/op", "lower", 0.16},
	{"host_live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// hostSharePackages are the rows of the CPU-profile breakdown: the leaf
// function of every sample is folded by Go package path into exactly
// one of them, so the rows sum to 1. Sub-packages fold into their
// parent except sim/event, which is a layer of its own.
var hostSharePackages = []string{
	"baseline", "blockdev", "core", "cpumodel", "delta", "event", "fault",
	"harness", "hdd", "lockmap", "metrics", "power", "raid", "ram",
	"server", "sig", "sim", "ssd", "workload",
	"benchmark", "runtime", "other",
}

// perLayer lists the per-layer metrics, named <module>.<metric>. A
// value of 0 on a workload means that layer is not on the workload's
// path (or, on serve-tcp, is behind the process boundary). Source of
// each: S = exact simulated count from harness.Result, P = host ns per
// call from a standalone probe on inputs drawn from the workload's
// generator, T = traced pass (timing wrapper on sys.Dev, spans, CPU
// profile).
var perLayer = func() []metricDecl {
	l := []metricDecl{
		// workload (P)
		{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
		{Name: "workload.content_ns", Unit: "ns", Better: "lower"},
		{Name: "workload.fill_ns", Unit: "ns", Better: "lower"},
		// harness (S, T)
		{Name: "harness.pagecache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "harness.read_mean_us", Unit: "us", Better: "lower"},
		{Name: "harness.read_p99_us", Unit: "us", Better: "lower"},
		{Name: "harness.write_mean_us", Unit: "us", Better: "lower"},
		{Name: "harness.write_p99_us", Unit: "us", Better: "lower"},
		{Name: "harness.run_self_share", Unit: "ratio", Better: "lower"},
		// core read and write paths (S)
		{Name: "core.read_ram_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "core.read_ssd_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "core.read_log_load_ratio", Unit: "ratio", Better: "lower"},
		{Name: "core.read_hdd_miss_ratio", Unit: "ratio", Better: "lower"},
		{Name: "core.write_delta_ratio", Unit: "ratio", Better: "higher"},
		{Name: "core.write_through_ratio", Unit: "ratio", Better: "lower"},
		{Name: "core.write_independent_ratio", Unit: "ratio", Better: "lower"},
		{Name: "core.delta_mean_bytes", Unit: "B", Better: "lower"},
		// core journal, log and cleaner (S)
		{Name: "core.txns_committed", Unit: "count", Better: "lower"},
		{Name: "core.commit_bytes_per_txn", Unit: "B", Better: "higher"},
		{Name: "core.log_blocks_written", Unit: "count", Better: "lower"},
		{Name: "core.cleaner_runs", Unit: "count", Better: "lower"},
		{Name: "core.deltas_rescued", Unit: "count", Better: "lower"},
		{Name: "core.commit_write_ms", Unit: "ms", Better: "lower"},
		{Name: "core.background_hdd_ms", Unit: "ms", Better: "lower"},
		// core RAM management (S) and host cost at the sys.Dev seam (T)
		{Name: "core.evict_data_ram", Unit: "count", Better: "lower"},
		{Name: "core.evict_delta_ram", Unit: "count", Better: "lower"},
		{Name: "core.scans", Unit: "count", Better: "lower"},
		{Name: "core.read_host_ns", Unit: "ns", Better: "lower"},
		{Name: "core.write_host_ns", Unit: "ns", Better: "lower"},
		{Name: "core.host_share", Unit: "ratio", Better: "lower"},
		// delta codec (P, S)
		{Name: "delta.encode_ns", Unit: "ns", Better: "lower"},
		{Name: "delta.decode_ns", Unit: "ns", Better: "lower"},
		{Name: "delta.size_ns", Unit: "ns", Better: "lower"},
		{Name: "delta.encode_allocs", Unit: "count", Better: "lower"},
		{Name: "delta.encode_ops", Unit: "count", Better: "lower"},
		{Name: "delta.decode_ops", Unit: "count", Better: "lower"},
		// signatures (P)
		{Name: "sig.signature_ns", Unit: "ns", Better: "lower"},
		// SSD model (S, P)
		{Name: "ssd.reads", Unit: "count", Better: "lower"},
		{Name: "ssd.host_writes", Unit: "count", Better: "lower"},
		{Name: "ssd.writes_per_kop", Unit: "count", Better: "lower"},
		{Name: "ssd.erases", Unit: "count", Better: "lower"},
		{Name: "ssd.write_amp", Unit: "ratio", Better: "lower"},
		{Name: "ssd.util_max", Unit: "ratio", Better: "lower"},
		{Name: "ssd.queue_wait_mean_us", Unit: "us", Better: "lower"},
		{Name: "ssd.read_host_ns", Unit: "ns", Better: "lower"},
		{Name: "ssd.write_host_ns", Unit: "ns", Better: "lower"},
		// HDD model (S, P)
		{Name: "hdd.ops", Unit: "count", Better: "lower"},
		{Name: "hdd.busy_share", Unit: "ratio", Better: "lower"},
		{Name: "hdd.util_max", Unit: "ratio", Better: "lower"},
		{Name: "hdd.queue_wait_mean_us", Unit: "us", Better: "lower"},
		{Name: "hdd.read_host_ns", Unit: "ns", Better: "lower"},
		{Name: "hdd.write_host_ns", Unit: "ns", Better: "lower"},
		// discrete-event engine (S, P)
		{Name: "event.queue_wait_mean_us", Unit: "us", Better: "lower"},
		{Name: "event.stalls", Unit: "count", Better: "lower"},
		{Name: "event.schedule_ns", Unit: "ns", Better: "lower"},
		{Name: "event.admit_ns", Unit: "ns", Better: "lower"},
		// cost models (S)
		{Name: "cpumodel.storage_cpu_share", Unit: "ratio", Better: "lower"},
		{Name: "power.wh_per_mop", Unit: "Wh", Better: "lower"},
		// baselines on the same stream (S)
		{Name: "baseline.fusionio_sim_req_per_s", Unit: "1/s", Better: "higher"},
		{Name: "baseline.raid_sim_req_per_s", Unit: "1/s", Better: "higher"},
		{Name: "baseline.lru_sim_req_per_s", Unit: "1/s", Better: "higher"},
		{Name: "baseline.dedup_sim_req_per_s", Unit: "1/s", Better: "higher"},
		// block service (P on an in-process replay of the served
		// stream, T) and the TCP client (untraced rep, T)
		{Name: "server.frame_encode_ns", Unit: "ns", Better: "lower"},
		{Name: "server.frame_decode_ns", Unit: "ns", Better: "lower"},
		{Name: "server.feed_self_ns", Unit: "ns", Better: "lower"},
		{Name: "server.router_ns", Unit: "ns", Better: "lower"},
		{Name: "lockmap.acquire_ns", Unit: "ns", Better: "lower"},
		{Name: "lockmap.contended_wait_us", Unit: "us", Better: "lower"},
		{Name: "client.lat_p50_us", Unit: "us", Better: "lower"},
		{Name: "client.lat_p99_us", Unit: "us", Better: "lower"},
		{Name: "client.write_us", Unit: "us", Better: "lower"},
		{Name: "client.wait_us", Unit: "us", Better: "lower"},
		// small everywhere; here to catch a regression (P)
		{Name: "blockdev.pool_ns", Unit: "ns", Better: "lower"},
		{Name: "metrics.record_ns", Unit: "ns", Better: "lower"},
		// traced pass against the untraced reps of the same invocation
		{Name: "trace_overhead_share", Unit: "ratio", Better: "lower"},
	}
	for _, p := range hostSharePackages {
		l = append(l, metricDecl{Name: p + ".host_self_share", Unit: "ratio", Better: "lower"})
	}
	return l
}()

// values maps metric name to measured value.
type values map[string]float64

// outcome is what one invocation reports. Attempted counts requests
// issued plus blocks read back; Failed counts the wrong-content, refused
// or non-OK ones among them.
type outcome struct {
	Attempted int64
	Failed    int64
	// Nondeterministic is set when two reps of one seed disagreed on a
	// simulated quantity.
	Nondeterministic bool
	Metrics          values
}

// correct reports whether every check of the run passed.
func (o outcome) correct() bool { return o.Failed == 0 && !o.Nondeterministic }

// emit writes the one-line result object the driver reads: exactly the
// keys correct, attempted, failed and metrics, with the metrics of decls
// and nothing else. A declared metric the run did not set is a bug in
// the benchmark, not a zero.
func (o outcome) emit(w io.Writer, decls []metricDecl) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{o.correct(), o.Attempted, o.Failed, make(map[string]mv, len(decls))}
	for _, d := range decls {
		v, ok := o.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("benchmark: metric %s declared but not measured", d.Name)
		}
		doc.Metrics[d.Name] = mv{v, d.Unit}
	}
	if len(o.Metrics) != len(decls) {
		return fmt.Errorf("benchmark: %d metrics measured, %d declared", len(o.Metrics), len(decls))
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// table renders the human view for stderr: one metric per row, in
// declaration order.
func (o outcome) table(w io.Writer, decls []metricDecl) {
	for _, d := range decls {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, o.Metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", o.correct(), o.Attempted, o.Failed)
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// median returns the middle of xs (mean of the two middles when even).
// xs is not modified; an empty slice yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of sorted xs by
// nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// workloadNames lists the workload names for usage messages.
func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}
