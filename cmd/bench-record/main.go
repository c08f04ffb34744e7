// Command bench-record runs the repository benchmark (go run ./benchmark
// -trace 0, unmodified, for BENCHMARK.json's run_seconds) on a parent
// checkout and on the working tree in ten alternating pairs, and records
// every end-to-end metric of every run in one machine-readable
// trajectory file. `make bench-record` extracts the parent and drives
// it:
//
//	bench-record -base /tmp/parent -base-rev <sha> -seed 42 -out BENCH_n.json
//
// Pair i runs each workload on both sides back to back, the parent first
// on even pairs and the working tree first on odd ones, so drift on the
// host lands on both sides. For each metric the file holds both sides'
// median, quartiles and runs, and the number of pairs the change won
// (strictly better in the metric's declared direction). A second seed
// recorded into the same file replaces that seed's record and keeps the
// others; a file recorded against a different parent is refused.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// side is one metric on one side of the comparison.
type side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

type metric struct {
	Name       string `json:"name"`
	Unit       string `json:"unit"`
	Better     string `json:"better"`
	Parent     side   `json:"parent"`
	Change     side   `json:"change"`
	ChangeWins int    `json:"change_wins"`
}

type workloadRecord struct {
	Name    string   `json:"name"`
	Metrics []metric `json:"metrics"`
}

// record is one seed's pairs.
type record struct {
	Seed    uint64 `json:"seed"`
	Pairs   int    `json:"pairs"`
	Seconds int    `json:"seconds"`
	// Failed counts failed operations over every run of a side; a run
	// whose correctness check fails stops the recording instead.
	Failed    map[string]int64 `json:"failed"`
	Workloads []workloadRecord `json:"workloads"`
}

type trajectory struct {
	Commit  string   `json:"commit"`
	Base    string   `json:"base"`
	Go      string   `json:"go"`
	NProc   int      `json:"nproc"`
	Records []record `json:"records"`
}

// pairs is the number of parent/change pairs per workload and seed.
const pairs = 10

// manifest is the part of BENCHMARK.json the recorder reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// result is the last line a benchmark run prints.
type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		base    = flag.String("base", "", "parent checkout to run the benchmark in (required)")
		baseRev = flag.String("base-rev", "", "the parent's commit, recorded as base")
		seed    = flag.Uint64("seed", 42, "workload seed")
		out     = flag.String("out", "", "trajectory file to write (required)")
	)
	flag.Parse()
	if *base == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	desc, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-record: git describe:", err)
		os.Exit(1)
	}
	if err := run(*base, *baseRev, string(bytes.TrimSpace(desc)), *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench-record:", err)
		os.Exit(1)
	}
}

func run(base, baseRev, commit string, seed uint64, out string) error {
	var m manifest
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	dirs := map[string]string{"parent": base, "change": "."}
	rec := record{Seed: seed, Pairs: pairs, Seconds: m.RunSeconds, Failed: map[string]int64{}}
	// runs[workload][side][metric] lists the values in pair order.
	runs := map[string]map[string]map[string][]float64{}
	for p := 0; p < pairs; p++ {
		for _, w := range m.Workloads {
			if runs[w.Name] == nil {
				runs[w.Name] = map[string]map[string][]float64{"parent": {}, "change": {}}
			}
			order := []string{"parent", "change"}
			if p%2 == 1 {
				order = []string{"change", "parent"}
			}
			for _, s := range order {
				res, err := bench(dirs[s], w.Name, seed, m.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", s, w.Name, p, err)
				}
				rec.Failed[s] += res.Failed
				for _, d := range m.EndToEnd {
					runs[w.Name][s][d.Name] = append(runs[w.Name][s][d.Name], res.Metrics[d.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "pair %d %s %s: host_ops_per_s %.0f\n", p, w.Name, s, res.Metrics["host_ops_per_s"].Value)
			}
		}
	}
	for _, w := range m.Workloads {
		wr := workloadRecord{Name: w.Name}
		for _, d := range m.EndToEnd {
			pr, ch := runs[w.Name]["parent"][d.Name], runs[w.Name]["change"][d.Name]
			mt := metric{Name: d.Name, Unit: d.Unit, Better: d.Better, Parent: summarize(pr), Change: summarize(ch)}
			for i := range min(len(pr), len(ch)) {
				if (d.Better == "higher" && ch[i] > pr[i]) || (d.Better == "lower" && ch[i] < pr[i]) {
					mt.ChangeWins++
				}
			}
			wr.Metrics = append(wr.Metrics, mt)
		}
		rec.Workloads = append(rec.Workloads, wr)
	}
	return write(out, commit, baseRev, rec)
}

// bench runs one benchmark and parses its last line.
func bench(dir, workload string, seed uint64, seconds int) (*result, error) {
	cmd := exec.Command("go", "run", "./benchmark", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("correctness check failed (%d failed)", res.Failed)
	}
	return &res, nil
}

// summarize gives a side's median and quartiles, interpolated linearly
// between order statistics.
func summarize(runs []float64) side {
	s := slices.Clone(runs)
	slices.Sort(s)
	q := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return side{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Runs: runs}
}

// write merges rec, measured on commit, into the trajectory file at out,
// replacing any record of the same seed. Every record of one file is
// measured against one parent, so a file whose base is not baseRev is
// an error.
func write(out, commit, baseRev string, rec record) error {
	var t trajectory
	if raw, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(raw, &t); err != nil {
			return fmt.Errorf("%s: %w", out, err)
		}
		if t.Base != baseRev {
			return fmt.Errorf("%s holds records against base %q, not %q: record into a new file", out, t.Base, baseRev)
		}
	}
	t.Commit, t.Base = commit, baseRev
	t.Go, t.NProc = runtime.Version(), runtime.NumCPU()
	t.Records = slices.DeleteFunc(t.Records, func(r record) bool { return r.Seed == rec.Seed })
	t.Records = append(t.Records, rec)
	slices.SortFunc(t.Records, func(a, b record) int { return cmp.Compare(a.Seed, b.Seed) })
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}
