package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"icash/internal/harness"
	"icash/internal/server"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarations holds the metric and workload tables to the limits
// the benchmark contract sets on BENCHMARK.json.
func TestDeclarations(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		name(w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s, unit s, lower is better")
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the grammar", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
}

// TestManifestCommitted fails when BENCHMARK.json drifts from the
// tables it is generated from.
func TestManifestCommitted(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
}

// TestEmitRoundTrip checks the result line: exactly the contract's four
// keys, every declared metric with its unit, and an error instead of a
// silent gap when a metric is missing or undeclared.
func TestEmitRoundTrip(t *testing.T) {
	o := outcome{Attempted: 10, Metrics: values{}}
	for i, d := range endToEnd {
		o.Metrics[d.Name] = float64(i) + 0.25
	}
	var buf bytes.Buffer
	if err := o.emit(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 4 || doc["correct"] == nil || doc["attempted"] == nil || doc["failed"] == nil || doc["metrics"] == nil {
		t.Fatalf("result keys = %v", doc)
	}
	var ms map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(doc["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) {
		t.Fatalf("%d metrics emitted, %d declared", len(ms), len(endToEnd))
	}
	for i, d := range endToEnd {
		if m := ms[d.Name]; m.Value != float64(i)+0.25 || m.Unit != d.Unit {
			t.Errorf("%s round-tripped as %+v", d.Name, m)
		}
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Error("the result must be one line")
	}

	o.Metrics["stray"] = 1
	if err := o.emit(io.Discard, endToEnd); err == nil {
		t.Error("an undeclared metric was emitted silently")
	}
	delete(o.Metrics, "stray")
	delete(o.Metrics, endToEnd[0].Name)
	if err := o.emit(io.Discard, endToEnd); err == nil {
		t.Error("a missing metric was emitted silently")
	}
}

// tiny shrinks a workload so a rep takes milliseconds.
func tiny(t *testing.T, name string) *workloadSpec {
	t.Helper()
	w := *workloadByName(name)
	w.scale /= 8
	if w.logBlocks > 0 {
		w.logBlocks = 64
	}
	if w.serve != nil {
		s := *w.serve
		s.requests = 300
		w.serve = &s
	}
	return &w
}

var inproc = []string{"oltp", "mail", "randwrite-qd8", "randread-shards4"}

// TestEndToEndSmoke runs each in-process workload twice at tiny size:
// every end-to-end metric is emitted and non-zero, the run verifies, and
// the simulated metrics of two invocations agree to the last digit.
func TestEndToEndSmoke(t *testing.T) {
	for _, name := range inproc {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			a, err := w.endToEndRun(context.Background(), 7, 0, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.endToEndRun(context.Background(), 7, 0, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !a.correct() || a.Attempted < 1 {
				t.Fatalf("outcome %+v", a)
			}
			if err := a.emit(io.Discard, endToEnd); err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if a.Metrics[d.Name] <= 0 {
					t.Errorf("%s = %v, must never be 0", d.Name, a.Metrics[d.Name])
				}
				if strings.HasPrefix(d.Name, "sim_") && a.Metrics[d.Name] != b.Metrics[d.Name] {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", d.Name, a.Metrics[d.Name], b.Metrics[d.Name])
				}
			}
		})
	}
}

// TestLayerSmoke runs the traced pass of each in-process workload at
// tiny size and checks the claims the per-layer table makes.
func TestLayerSmoke(t *testing.T) {
	for _, name := range inproc {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			spans := t.TempDir() + "/spans.jsonl"
			o, err := w.layerRun(context.Background(), 7, 0, spans, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !o.correct() {
				t.Fatalf("outcome %+v", o)
			}
			if err := o.emit(io.Discard, perLayer); err != nil {
				t.Fatal(err)
			}
			v := o.Metrics
			var sum float64
			for _, p := range hostSharePackages {
				sum += v[p+".host_self_share"]
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("host_self_share rows sum to %v", sum)
			}
			for n, x := range v {
				if strings.HasPrefix(n, "server.") || strings.HasPrefix(n, "lockmap.") || strings.HasPrefix(n, "client.") {
					if !strings.HasSuffix(n, ".host_self_share") && x != 0 {
						t.Errorf("%s = %v on an in-process workload", n, x)
					}
				}
			}
			if v["core.host_share"] <= 0 || v["core.host_share"] > 1 || v["harness.run_self_share"] <= 0 {
				t.Errorf("core.host_share = %v, harness.run_self_share = %v", v["core.host_share"], v["harness.run_self_share"])
			}
			switch name {
			case "randread-shards4":
				if v["delta.encode_ops"] != 0 || v["core.txns_committed"] != 0 || v["event.schedule_ns"] <= 0 {
					t.Errorf("read-only twin: encode_ops %v, txns_committed %v, schedule_ns %v", v["delta.encode_ops"], v["core.txns_committed"], v["event.schedule_ns"])
				}
			case "randwrite-qd8":
				if v["core.cleaner_runs"] <= 0 || v["delta.encode_ops"] <= 0 {
					t.Errorf("cleaner_runs %v, encode_ops %v", v["core.cleaner_runs"], v["delta.encode_ops"])
				}
			case "oltp":
				if v["baseline.raid_sim_req_per_s"] <= 0 || v["event.schedule_ns"] != 0 {
					t.Errorf("raid baseline %v, schedule_ns %v on a serial workload", v["baseline.raid_sim_req_per_s"], v["event.schedule_ns"])
				}
			}
			st, err := os.Stat(spans)
			if err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestServedReplay drives the served stream in-process: the stream is a
// pure function of the seed, every reply verifies, and a wrong payload
// is counted.
func TestServedReplay(t *testing.T) {
	w := tiny(t, "serve-tcp")
	a, b := newConnStream(w, 7, 1), newConnStream(w, 7, 1)
	for i := 0; i < 50; i++ {
		ra, rb := a.next(), b.next()
		if ra.Op != rb.Op || ra.LBA != rb.LBA || !bytes.Equal(ra.Payload, rb.Payload) {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		if lba := int64(ra.LBA); lba < a.first || lba >= a.first+a.blocks {
			t.Fatalf("request %d: lba %d outside the VM partition", i, lba)
		}
	}
	for _, kind := range []harness.Kind{harness.ICASH, harness.FusionIO} {
		r, err := w.replay(7, kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.bad != 0 || r.ops != int64(w.serve.conns*w.serve.requests) || r.simReqPerSec() <= 0 {
			t.Errorf("%v replay: ops %d bad %d sim req/s %v", kind, r.ops, r.bad, r.simReqPerSec())
		}
	}

	c := newConnStream(w, 7, 0)
	var req server.Request
	for req.Op != server.OpRead {
		req = c.next()
	}
	c.check(server.Reply{Op: server.OpRead, ID: req.ID, Status: server.StatusOK, Payload: make([]byte, 4096)})
	if c.bad != 1 {
		t.Errorf("a wrong read payload counted %d failures", c.bad)
	}
}

// TestFoldProfile folds a real CPU profile of this process.
func TestFoldProfile(t *testing.T) {
	stop, err := startProfile(true)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := time.Now(); time.Since(t0) < 60*time.Millisecond; {
		sink++
	}
	rows := map[string]int64{}
	if err := foldProfile(stop(), rows); err != nil {
		t.Fatal(err)
	}
	var total int64
	for row, n := range rows {
		total += n
		found := false
		for _, p := range hostSharePackages {
			found = found || p == row
		}
		if !found {
			t.Errorf("row %q is not a declared package", row)
		}
	}
	if total == 0 {
		t.Error("no samples folded from a 60 ms busy loop")
	}
	if err := foldProfile([]byte("not a profile"), rows); err == nil {
		t.Error("garbage folded without error")
	}
}

func TestHostShareRow(t *testing.T) {
	for fn, want := range map[string]string{
		"icash/internal/core.(*Controller).evictOneDataRAM": "core",
		"icash/internal/sim/event.(*Scheduler).Step":        "event",
		"icash/internal/sim.(*Rand).Uint64":                 "sim",
		"icash/internal/fault/chaos.Run":                    "fault",
		"icash/internal/harness.Run.func1":                  "harness",
		"main.(*timedDev).ReadBlock":                        "benchmark",
		"runtime.mallocgc":                                  "runtime",
		"internal/bytealg.Equal":                            "runtime",
		"hash/crc32.ieeeCLMUL":                              "other",
		"":                                                  "other",
	} {
		if got := hostShareRow(fn); got != want {
			t.Errorf("hostShareRow(%q) = %q, want %q", fn, got, want)
		}
	}
}
