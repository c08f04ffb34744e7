package harness

import (
	"fmt"
	"testing"

	"icash/internal/race"
	"icash/internal/workload"
)

// keptStore is a device whose store reports how it keeps a block.
type keptStore interface {
	Kept(lba int64) (written, patched bool)
}

// patchShare counts the blocks of d in [lo, hi) that were written and
// the share of those kept as patches.
func patchShare(d keptStore, lo, hi int64) (written int, share float64) {
	patched := 0
	for lba := lo; lba < hi; lba++ {
		w, p := d.Kept(lba)
		if w {
			written++
		}
		if p {
			patched++
		}
	}
	if written == 0 {
		return 0, 0
	}
	return written, float64(patched) / float64(written)
}

// TestBasisWiring runs RandWrite on every system kind and checks where
// the data set's basis went: a store whose addresses are data-set
// addresses keeps nearly all its written blocks as patches (so a
// missing shard or RAID translation, which pairs blocks with the wrong
// family base, fails here), and a cache-slot store keeps none.
func TestBasisWiring(t *testing.T) {
	opts := testOpts
	opts.Shards = 2
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			sys, gen, err := BuildPopulated(k, workload.RandWrite(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(sys, gen); err != nil {
				t.Fatal(err)
			}
			n := gen.DataBlocks()
			dataSet := func(name string, d keptStore, lo, hi int64) {
				t.Helper()
				if written, share := patchShare(d, lo, hi); written == 0 || share < 0.9 {
					t.Errorf("%s: %d blocks written, %.3f of them kept as patches, want >= 0.9", name, written, share)
				}
			}
			slots := func(name string, d keptStore, blocks int64) {
				t.Helper()
				if _, share := patchShare(d, 0, blocks); share != 0 {
					t.Errorf("%s: %.3f of its written blocks kept as patches, want none", name, share)
				}
			}
			switch k {
			case FusionIO:
				dataSet("ssd", sys.SSD, 0, n)
			case RAID0:
				for i, h := range sys.HDDs {
					dataSet(fmt.Sprintf("member %d", i), h, 0, h.Blocks())
				}
			case Dedup, LRU:
				dataSet("hdd", sys.HDDs[0], 0, n)
				slots("ssd", sys.SSD, sys.SSD.Blocks())
			case ICASH:
				home := sys.Sharded.ShardBlocks()
				for i, h := range sys.HDDs {
					dataSet(ShardStation(i, 2, "hdd home"), h, 0, home)
					slots(ShardStation(i, 2, "ssd"), sys.SSDs[i], sys.SSDs[i].Blocks())
				}
			}
		})
	}
}

// TestBasisInstall: Populate installs the generator as the basis, and
// installing it again is free. Run installs nothing, so the measured
// region pays for no install.
func TestBasisInstall(t *testing.T) {
	sys, gen, err := BuildPopulated(ICASH, workload.RandWrite(), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if sys.basis != gen {
		t.Fatalf("Populate installed basis %v, want the generator", sys.basis)
	}
	if got := testing.AllocsPerRun(10, func() { sys.setBasis(gen) }); got != 0 && !race.Enabled {
		t.Fatalf("re-installing the populated basis allocated %v objects, want 0", got)
	}
	if _, err := Run(sys, workload.NewGenerator(workload.RandWrite(), testOpts)); err != nil {
		t.Fatal(err)
	}
	if sys.basis != gen {
		t.Fatal("Run installed a basis")
	}
}
