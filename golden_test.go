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
	"os"
	"path/filepath"
	"testing"

	"icash/internal/fault/chaos"
	"icash/internal/harness"
	"icash/internal/server"
	"icash/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the current tree")

func TestGolden(t *testing.T) {
	figs := []string{"fig7", "fig15"}
	soak := chaos.Config{Seed: 42, Ops: 2000}
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
		// Five VM sessions of eight tokens over five shards: interleaved
		// sessions, each ending in OpClose.
		{"serve-vms", func() (string, error) {
			sr, err := server.RunServed(workload.TPCC5VM(), workload.Options{
				Scale: 1.0 / 1024, Seed: 42, StreamPerVM: true, QueueDepth: 8, Shards: 5})
			if err != nil {
				return "", err
			}
			return sr.Report(), nil
		}},
		{"figs-qd1", func() (string, error) {
			return harness.RunExperiments(figs, workload.Options{Scale: 1.0 / 1024, Seed: 42})
		}},
		{"figs-qd8-vms", func() (string, error) {
			return harness.RunExperiments(figs, workload.Options{
				Scale: 1.0 / 1024, Seed: 42, QueueDepth: 8, StreamPerVM: true})
		}},
		// The three soak reports are icash-bench's -chaos, -scrub and
		// -bitrot at -seeds 3.
		{"chaos", func() (string, error) { return chaos.SoakReport(soak, 3, 0) }},
		{"scrub", func() (string, error) { return chaos.ScrubOverheadReport(soak, 3, 0) }},
		{"bitrot", func() (string, error) { return chaos.BitrotReport(soak, 3, 0) }},
		// The chaos soak over four shards: every fault lands on shard 0,
		// and the populate fans out across the shards.
		{"chaos-shards", func() (string, error) {
			return chaos.SoakReport(chaos.Config{Seed: 42, Ops: 2000, Shards: 4}, 3, 0)
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
