package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteRefusesOtherBase: seeds recorded against one parent merge
// into one file; a record against another parent is refused and leaves
// the file as it was.
func TestWriteRefusesOtherBase(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	for _, seed := range []uint64{9001, 42, 9001} {
		if err := write(out, "change", "parent-a", record{Seed: seed}); err != nil {
			t.Fatalf("seed %d against the file's own base: %v", seed, err)
		}
	}
	before, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tr trajectory
	if err := json.Unmarshal(before, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Base != "parent-a" || len(tr.Records) != 2 || tr.Records[0].Seed != 42 || tr.Records[1].Seed != 9001 {
		t.Fatalf("merged file: base %q, records %+v; want base parent-a, seeds 42 and 9001", tr.Base, tr.Records)
	}

	if err := write(out, "change", "parent-b", record{Seed: 7}); err == nil {
		t.Fatal("a record against another base was merged")
	}
	after, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("a refused record changed the file")
	}
}
