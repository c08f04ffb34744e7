package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"icash/internal/workload"
)

// Experiment maps one figure or table of the paper's §5 to the
// benchmark run that regenerates it and a renderer for its rows. The
// paper's reported values are embedded so every rendering shows
// measured-vs-paper side by side.
type Experiment struct {
	// ID is the figure/table identifier, e.g. "fig6a", "table6-tpcc".
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Benchmark is the workload.Profile name driving the experiment.
	Benchmark string
	// Render formats the experiment's rows from a completed run.
	Render func(*BenchmarkRun) string
}

// paperFig holds the paper's per-system values in AllKinds order:
// FusionIO, RAID, Dedup, LRU, I-CASH.
type paperFig [5]float64

// renderSeries prints one value per system with the paper's number
// beside it; higher values are better.
func renderSeries(br *BenchmarkRun, paper paperFig, unit string,
	get func(*Result) float64) string {
	return renderSeriesDir(br, paper, unit, get, false)
}

// renderSeriesLow is renderSeries for lower-is-better metrics
// (latencies, execution time, energy, scores).
func renderSeriesLow(br *BenchmarkRun, paper paperFig, unit string,
	get func(*Result) float64) string {
	return renderSeriesDir(br, paper, unit, get, true)
}

func renderSeriesDir(br *BenchmarkRun, paper paperFig, unit string,
	get func(*Result) float64, lowerIsBetter bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %14s\n", "System", "measured", "paper")
	for i, k := range AllKinds() {
		r := br.Results[k]
		if r == nil {
			continue
		}
		fmt.Fprintf(&b, "%-10s %11.2f %s %11.2f %s\n", k.String(), get(r), unit, paper[i], unit)
	}
	b.WriteString(shapeNote(br, paper, get, lowerIsBetter))
	return b.String()
}

// shapeNote reports whether the measured winner matches the paper's —
// the reproduction criterion (who wins, not absolute values).
func shapeNote(br *BenchmarkRun, paper paperFig, get func(*Result) float64, lowerIsBetter bool) string {
	order := func(vals map[Kind]float64) []Kind {
		ks := append([]Kind(nil), AllKinds()...)
		sort.SliceStable(ks, func(i, j int) bool {
			if lowerIsBetter {
				return vals[ks[i]] < vals[ks[j]]
			}
			return vals[ks[i]] > vals[ks[j]]
		})
		return ks
	}
	measured := make(map[Kind]float64)
	reported := make(map[Kind]float64)
	for i, k := range AllKinds() {
		if r := br.Results[k]; r != nil {
			measured[k] = get(r)
		}
		reported[k] = paper[i]
	}
	mo, po := order(measured), order(reported)
	same := mo[0] == po[0]
	return fmt.Sprintf("best measured: %s; best in paper: %s; agreement: %v\n",
		mo[0], po[0], same)
}

// Experiments is the full per-experiment index (DESIGN.md §3): every
// figure and table in the paper's evaluation.
var Experiments = []Experiment{
	{
		ID: "fig6a", Title: "SysBench transaction rate (tx/s)", Benchmark: "SysBench",
		Render: func(br *BenchmarkRun) string {
			out := renderSeries(br, paperFig{180, 85, 161, 175, 190}, "tx/s",
				func(r *Result) float64 { return r.TxnPerSec })
			if r := br.Results[ICASH]; r != nil && r.ICASHStats != nil {
				ref, assoc, indep := r.KindCounts.Fractions()
				out += fmt.Sprintf("I-CASH block mix: %.0f%% reference / %.0f%% associate / %.0f%% independent (paper: 1/85/14)\n",
					100*ref, 100*assoc, 100*indep)
			}
			return out
		},
	},
	{
		ID: "fig6b", Title: "SysBench CPU utilization", Benchmark: "SysBench",
		Render: func(br *BenchmarkRun) string {
			return renderSeries(br, paperFig{52, 53, 53, 56, 55}, "%",
				func(r *Result) float64 { return 100 * r.CPUUtil })
		},
	},
	{
		ID: "fig7", Title: "SysBench response time (µs)", Benchmark: "SysBench",
		Render: func(br *BenchmarkRun) string {
			out := "reads:\n" + renderSeriesLow(br, paperFig{35, 192, 71, 36, 18}, "µs",
				func(r *Result) float64 { return r.ReadHist.Mean().Microseconds() })
			out += "writes:\n" + renderSeriesLow(br, paperFig{75, 1156, 106, 122, 7}, "µs",
				func(r *Result) float64 { return r.WriteHist.Mean().Microseconds() })
			return out
		},
	},
	{
		ID: "fig8a", Title: "Hadoop execution time (s, lower is better)", Benchmark: "Hadoop",
		Render: func(br *BenchmarkRun) string {
			return renderSeriesLow(br, paperFig{24, 32, 26, 25, 18}, "s",
				func(r *Result) float64 { return r.Elapsed.Seconds() })
		},
	},
	{
		ID: "fig8b", Title: "Hadoop CPU utilization", Benchmark: "Hadoop",
		Render: func(br *BenchmarkRun) string {
			return renderSeries(br, paperFig{83, 73, 82, 84, 86}, "%",
				func(r *Result) float64 { return 100 * r.CPUUtil })
		},
	},
	{
		ID: "fig9", Title: "Hadoop response time (µs)", Benchmark: "Hadoop",
		Render: func(br *BenchmarkRun) string {
			out := "reads:\n" + renderSeriesLow(br, paperFig{1311, 3959, 1712, 1699, 1368}, "µs",
				func(r *Result) float64 { return r.ReadHist.Mean().Microseconds() })
			out += "writes:\n" + renderSeriesLow(br, paperFig{7301, 3244, 7520, 7405, 586}, "µs",
				func(r *Result) float64 { return r.WriteHist.Mean().Microseconds() })
			return out
		},
	},
	{
		ID: "fig10a", Title: "TPC-C transaction rate (tx/s)", Benchmark: "TPC-C",
		Render: func(br *BenchmarkRun) string {
			return renderSeries(br, paperFig{51, 40, 49, 50, 58}, "tx/s",
				func(r *Result) float64 { return r.TxnPerSec })
		},
	},
	{
		ID: "fig10b", Title: "TPC-C CPU utilization", Benchmark: "TPC-C",
		Render: func(br *BenchmarkRun) string {
			return renderSeries(br, paperFig{51, 41, 52, 61, 62}, "%",
				func(r *Result) float64 { return 100 * r.CPUUtil })
		},
	},
	{
		ID: "fig11", Title: "TPC-C application response time (ms, lower is better)", Benchmark: "TPC-C",
		Render: func(br *BenchmarkRun) string {
			return renderSeriesLow(br, paperFig{6.6, 14, 12, 7.1, 2.6}, "ms", txnLatencyMs)
		},
	},
	{
		ID: "fig12", Title: "LoadSim score (lower is better)", Benchmark: "LoadSim",
		Render: func(br *BenchmarkRun) string {
			return renderSeriesLow(br, paperFig{1803, 5340, 3259, 3002, 2263}, "",
				func(r *Result) float64 { return loadSimScore(r) })
		},
	},
	{
		ID: "fig13", Title: "SPEC-sfs response time (ms, lower is better)", Benchmark: "SPEC-sfs",
		Render: func(br *BenchmarkRun) string {
			return renderSeriesLow(br, paperFig{1.4, 1.8, 2.1, 2.1, 1.5}, "ms", txnLatencyMs)
		},
	},
	{
		ID: "fig14", Title: "RUBiS request rate (req/s)", Benchmark: "RUBiS",
		Render: func(br *BenchmarkRun) string {
			return renderSeries(br, paperFig{84, 48, 59, 73, 76}, "req/s",
				func(r *Result) float64 { return r.TxnPerSec })
		},
	},
	{
		ID: "fig15", Title: "Five TPC-C VMs, normalized transaction rate", Benchmark: "TPC-C 5VMs",
		Render: func(br *BenchmarkRun) string {
			return renderNormalized(br, paperFig{1.0, 0.4, 0.5, 0.4, 2.8})
		},
	},
	{
		ID: "fig16", Title: "Five RUBiS VMs, normalized request rate", Benchmark: "RUBiS 5VMs",
		Render: func(br *BenchmarkRun) string {
			return renderNormalized(br, paperFig{1.0, 0.2, 0.3, 0.3, 1.2})
		},
	},
	{
		ID: "table5-hadoop", Title: "Power consumption, Hadoop (Wh)", Benchmark: "Hadoop",
		Render: func(br *BenchmarkRun) string {
			return renderSeriesLow(br, paperFig{8, 24, 10, 10, 7}, "Wh",
				func(r *Result) float64 { return r.WattHours })
		},
	},
	{
		ID: "table5-tpcc", Title: "Power consumption, TPC-C (Wh)", Benchmark: "TPC-C",
		Render: func(br *BenchmarkRun) string {
			return renderSeriesLow(br, paperFig{11, 28, 11, 12, 11}, "Wh",
				func(r *Result) float64 { return r.WattHours })
		},
	},
	{
		ID: "table6-sysbench", Title: "SSD write requests, SysBench", Benchmark: "SysBench",
		Render: renderTable6(paperFig{893700, 0, 1419023, 1494220, 232452}),
	},
	{
		ID: "table6-hadoop", Title: "SSD write requests, Hadoop", Benchmark: "Hadoop",
		Render: renderTable6(paperFig{2540124, 0, 3082196, 3469785, 1521399}),
	},
	{
		ID: "table6-tpcc", Title: "SSD write requests, TPC-C", Benchmark: "TPC-C",
		Render: renderTable6(paperFig{1173741, 0, 1963988, 2051511, 359919}),
	},
	{
		ID: "table6-specsfs", Title: "SSD write requests, SPEC-sfs", Benchmark: "SPEC-sfs",
		Render: renderTable6(paperFig{5752436, 0, 5559698, 5514935, 5096890}),
	},
}

// renderTable6 renders SSD write counts. The paper's Table 6 has no
// RAID row (no SSD); measured counts are scaled back to paper scale for
// an apples-to-apples magnitude comparison, each row by its own op count.
func renderTable6(paper paperFig) func(*BenchmarkRun) string {
	return func(br *BenchmarkRun) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%-10s %14s %18s %14s\n", "System", "measured", "scaled-to-paper", "paper")
		for i, k := range AllKinds() {
			if k == RAID0 {
				continue // no SSD in the RAID0 system
			}
			r := br.Results[k]
			if r == nil {
				continue
			}
			scale := float64(br.Profile.PaperOps()) / float64(r.Ops)
			fmt.Fprintf(&b, "%-10s %14d %18.0f %14.0f\n",
				k.String(), r.SSDHostWrites, float64(r.SSDHostWrites)*scale, paper[i])
		}
		icash, fio := br.Results[ICASH], br.Results[FusionIO]
		if icash != nil && fio != nil && fio.SSDHostWrites > 0 {
			fmt.Fprintf(&b, "I-CASH SSD writes vs FusionIO: %.2fx (paper: %.2fx)\n",
				float64(icash.SSDHostWrites)/float64(fio.SSDHostWrites), paper[4]/paper[0])
		}
		return b.String()
	}
}

// renderNormalized normalizes throughput to the FusionIO baseline, the
// way Figures 15 and 16 report.
func renderNormalized(br *BenchmarkRun, paper paperFig) string {
	base := br.Results[FusionIO]
	if base == nil || base.TxnPerSec == 0 {
		return "missing FusionIO baseline\n"
	}
	return renderSeries(br, paper, "x",
		func(r *Result) float64 { return r.TxnPerSec / base.TxnPerSec })
}

// txnLatencyMs reports the mean application-level transaction latency:
// IOsPerTxn requests' worth of compute plus I/O.
func txnLatencyMs(r *Result) float64 {
	if r.TxnPerSec == 0 {
		return 0
	}
	return 1000 / r.TxnPerSec
}

// loadSimScore mimics LoadSim's weighted-latency score (lower is
// better): the mean request latency in tens of microseconds.
func loadSimScore(r *Result) float64 {
	reqLat := r.ReadHist.Sum() + r.WriteHist.Sum()
	n := r.ReadHist.Count() + r.WriteHist.Count()
	if n == 0 {
		return 0
	}
	return float64(reqLat) / float64(n) / 10_000
}

// ExperimentByID looks up one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExperiments executes the benchmark for the named experiment IDs
// ("all" = every experiment), sharing one benchmark run across all the
// figures it feeds, and returns the rendered report. An ID that names no
// experiment fails the call before anything runs.
//
// The work is flattened into one RunPoints grid of (profile, system)
// points — finer-grained than fanning whole benchmarks, so a
// five-system SysBench run does not serialize behind one worker while
// others idle. Rendering happens afterwards in Table4 order from the
// index-gathered results, so the report is byte-identical at every
// worker count; on failure it still contains every benchmark that
// completed before (in submission order) the first failing point,
// exactly like a sequential loop.
func RunExperiments(ids []string, opts workload.Options) (string, error) {
	want := make(map[string]bool)
	all := len(ids) == 0
	var unknown []string
	for _, id := range ids {
		if id == "all" {
			all = true
		} else if _, ok := ExperimentByID(id); !ok {
			unknown = append(unknown, strconv.Quote(id))
		}
		want[id] = true
	}
	if unknown != nil {
		valid := make([]string, len(Experiments))
		for i, e := range Experiments {
			valid[i] = e.ID
		}
		return "", fmt.Errorf("harness: unknown experiment %s (valid: all, %s)",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	// Group experiments by benchmark.
	benchNeeded := map[string]bool{}
	for _, e := range Experiments {
		if all || want[e.ID] {
			benchNeeded[e.Benchmark] = true
		}
	}
	kinds := AllKinds()
	var profiles []workload.Profile
	var pts []Point
	for _, p := range workload.Table4() {
		if !benchNeeded[p.Name] {
			continue
		}
		profiles = append(profiles, p)
		for _, k := range kinds {
			pts = append(pts, Point{Profile: p, Opts: opts, Kind: k})
		}
	}
	out, err := RunPoints(opts.Workers, pts)
	var b strings.Builder
	for pi, p := range profiles {
		if (pi+1)*len(kinds) > len(out) {
			break // the first failing point truncates the report at its benchmark
		}
		br := newBenchmarkRun(p, kinds, out[pi*len(kinds):])
		for _, e := range Experiments {
			if e.Benchmark != p.Name || !(all || want[e.ID]) {
				continue
			}
			fmt.Fprintf(&b, "=== %s: %s ===\n", e.ID, e.Title)
			b.WriteString(e.Render(br))
			b.WriteString("\n")
		}
	}
	return b.String(), err
}
