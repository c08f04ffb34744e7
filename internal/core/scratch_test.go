package core_test

import (
	"bytes"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/harness"
	"icash/internal/workload"
)

// scratchBound is K, the most scratch buffers one host request may hold
// at once: two nested units of work of at most two buffers each.
//   - A unit borrows at most two. A materialize borrows the slot content
//     it decodes against and the decode output (a home read borrows one),
//     and so does every background item: an eviction (one materialize), a
//     write-through backup (one slot read), a scan or first-load candidate
//     (a slot read and an unattached block's content, cached or one home
//     read).
//   - A background loop returns each item's buffers before the next item
//     borrows, so it holds one item at a time.
//   - Units nest at most two deep. Background work runs before the
//     request borrows (the scan, metadata eviction, first-load pairing),
//     or beneath one unit that holds its buffers (a write's slot read, a
//     scan candidate) when storeDelta's reclamation evicts or commits; an
//     eviction nests nothing.
const scratchBound = 4

// TestScratchBounded drives the shapes that run long background loops
// inside one host request — a write stream whose log wraps (sheds and
// compactions) and a write-through stream that ends in a Flush (the
// backup pass) — and checks that no request ever held more than
// scratchBound scratch buffers. Releases zero what they return, and
// every LBA is then read back against the generator, so a buffer used
// after its release shows up as wrong bytes.
func TestScratchBounded(t *testing.T) {
	cases := []struct {
		name    string
		profile workload.Profile
		scale   float64
		shards  int
		cleaner bool // write until the log cleaner has run 3 times
	}{
		{"randwrite", workload.RandWrite(), 1.0 / 25, 1, true},
		{"mail", workload.LoadSim(), 1.0 / 1024, 1, false},
		{"shards4", workload.RandWrite(), 1.0 / 25, 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := workload.Options{Scale: tc.scale, Seed: 42, Shards: tc.shards, Workers: 1}
			if tc.cleaner {
				opts.TuneICASH = func(c *core.Config) { c.LogBlocks = 512 }
			}
			sys, gen, err := harness.BuildPopulated(harness.ICASH, tc.profile, opts)
			if err != nil {
				t.Fatal(err)
			}
			sc := sys.Sharded
			for _, c := range sc.Shards() {
				c.PoisonScratch()
			}
			cleanerRuns := func() (n int64) {
				for _, c := range sc.Shards() {
					n += c.Stats.LogCleanerRuns
				}
				return n
			}
			buf := make([]byte, blockdev.BlockSize)
			for !tc.cleaner || cleanerRuns() < 3 {
				req, ok := gen.Next()
				if !ok {
					break
				}
				for lba := req.LBA; lba < req.LBA+int64(req.Blocks); lba++ {
					if req.Write {
						gen.WriteContent(lba, buf)
						_, err = sc.WriteBlock(lba, buf)
					} else {
						_, err = sc.ReadBlock(lba, buf)
					}
					if err != nil {
						t.Fatalf("lba %d: %v", lba, err)
					}
				}
			}
			if tc.cleaner && cleanerRuns() < 3 {
				t.Fatalf("stream ended after %d cleaner runs, want 3", cleanerRuns())
			}
			if err := sc.Flush(); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, blockdev.BlockSize)
			for lba := int64(0); lba < gen.DataBlocks(); lba++ {
				if _, err := sc.ReadBlock(lba, buf); err != nil {
					t.Fatalf("read back lba %d: %v", lba, err)
				}
				gen.CurrentContent(lba, want)
				if !bytes.Equal(buf, want) {
					t.Fatalf("read back lba %d: wrong content", lba)
				}
			}
			for i, c := range sc.Shards() {
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				if p := c.ScratchPeak(); p > scratchBound {
					t.Errorf("shard %d: a host request held %d scratch buffers, bound %d", i, p, scratchBound)
				} else {
					t.Logf("shard %d: scratch peak %d", i, p)
				}
			}
		})
	}
}
