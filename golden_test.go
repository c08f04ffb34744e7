// Golden outputs: the rendered reports of every mode icash-bench can
// print, at sizes small enough to run in seconds, compared byte for byte
// with testdata/golden/*.txt. The simulation is deterministic, so a
// refactor that is supposed to keep behaviour keeps these files; any
// diff is either a bug or a change the PR has to name.
//
//	go test -run TestGolden .            # compare
//	go test -run TestGolden -update .    # regenerate
package icash_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icash/internal/fault/chaos"
	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/server"
	"icash/internal/sim"
	"icash/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the current tree")

// goldenSoak renders three seeds of one chaos configuration: the
// one-line summary icash-bench prints per seed, then the station
// scoreboard (queue waits, service tails, fail-slow inflation).
func goldenSoak(cfg chaos.Config) (string, error) {
	var b strings.Builder
	for seed := uint64(42); seed < 45; seed++ {
		cfg.Seed = seed
		res, err := chaos.Run(cfg)
		if err != nil {
			return b.String(), err
		}
		fmt.Fprintf(&b, "%s\n", res)
		b.WriteString(metrics.FormatStations(res.Stations, "  ", true))
	}
	return b.String(), nil
}

func TestGolden(t *testing.T) {
	figs := []string{"fig7", "fig15"}
	cases := []struct {
		name   string
		render func() (string, error)
	}{
		{"qdsweep", func() (string, error) {
			return harness.QDSweep(nil, workload.Options{Seed: 42})
		}},
		{"wsweep", func() (string, error) {
			return harness.WriteQDSweep(nil, workload.Options{Seed: 42})
		}},
		{"shardsweep", func() (string, error) {
			return harness.ShardSweep(nil, workload.Options{Seed: 42, MaxOps: 3000})
		}},
		{"serve", func() (string, error) {
			return server.ServeSweep(nil, workload.Options{Seed: 42})
		}},
		{"figs-qd1", func() (string, error) {
			return harness.RunExperiments(figs, workload.Options{Scale: 1.0 / 1024, Seed: 42})
		}},
		{"figs-qd8-vms", func() (string, error) {
			return harness.RunExperiments(figs, workload.Options{
				Scale: 1.0 / 1024, Seed: 42, QueueDepth: 8, StreamPerVM: true})
		}},
		// The three soak configurations are icash-bench's -chaos, -scrub
		// (10ms arm) and -bitrot.
		{"chaos", func() (string, error) {
			return goldenSoak(chaos.Config{Ops: 2000, QueueDepth: 8})
		}},
		{"scrub", func() (string, error) {
			return goldenSoak(chaos.Config{Ops: 2000, QueueDepth: 8,
				NoFailStop: true, NoFailSlow: true, ScrubInterval: 10 * sim.Millisecond})
		}},
		{"bitrot", func() (string, error) {
			return goldenSoak(chaos.Config{Ops: 2000, QueueDepth: 8,
				NoFailStop: true, NoFailSlow: true,
				SilentFaults: true, ScrubInterval: 5 * sim.Millisecond})
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := c.render()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s\n--- got ---\n%s--- want ---\n%s", c.name, path, got, want)
			}
		})
	}
}
