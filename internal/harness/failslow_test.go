package harness

import (
	"errors"
	"reflect"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/fault"
	"icash/internal/workload"
)

// TestEmptyFaultLayerBitIdentical is the fail-slow machinery's
// do-no-harm regression: building the I-CASH stack with the full fault
// layer armed but inert — fault wrappers with zero rates, an empty
// fail-slow schedule installed as station shaper, the slow detector
// watching — must leave a QD=1 run bit-identical to a build with no
// fault layer at all. Every counter, latency bucket, and controller
// stat has to match; the chaos harness's ablation arms depend on the
// instrumentation itself being latency- and behavior-neutral.
func TestEmptyFaultLayerBitIdentical(t *testing.T) {
	p := workload.SysBench()
	opts := workload.Options{Scale: 1.0 / 256, MaxOps: 1500, Seed: 42}

	run := func(withFaultLayer bool) *Result {
		gen := workload.NewGenerator(p, opts)
		cfg := BuildConfig{
			DataBlocks:     gen.DataBlocks(),
			SSDCacheBlocks: gen.DataBlocks() / 2,
		}
		if withFaultLayer {
			cfg.Faults = &fault.Schedule{Seed: opts.Seed}
			cfg.SlowDetector = true
		}
		sys, err := Build(ICASH, cfg)
		if err != nil {
			t.Fatalf("build (fault layer %v): %v", withFaultLayer, err)
		}
		gen.Reset()
		sys.SetFill(gen.Fill)
		if err := Populate(sys, gen); err != nil {
			t.Fatalf("populate (fault layer %v): %v", withFaultLayer, err)
		}
		res, err := Run(sys, gen)
		if err != nil {
			t.Fatalf("run (fault layer %v): %v", withFaultLayer, err)
		}
		return res
	}

	bare, layered := run(false), run(true)

	// The layered run reports its (all-zero-fault) injector stats; blank
	// them so the comparison covers everything the workload observed.
	if layered.SSDFaultStats == nil || layered.HDDFaultStats == nil {
		t.Fatal("fault layer build did not report injector stats")
	}
	if layered.SSDFaultStats.MediaErrors != 0 || layered.SSDFaultStats.SlowOps != 0 {
		t.Fatalf("inert fault layer injected faults: %+v", layered.SSDFaultStats)
	}
	layered.SSDFaultStats, layered.HDDFaultStats = nil, nil

	if !reflect.DeepEqual(bare, layered) {
		t.Fatalf("empty fault layer changed the run:\n bare    %+v\n layered %+v", bare, layered)
	}
}

// TestFaultsArmAfterPopulate: a Faults plan is inert while Populate
// loads the data set and armed from the instant it returns. A window
// from offset 0 that times out every operation lets Populate succeed
// and fails the first measured operation on either injector, whose
// stations the harness scoped to shard 0 ("s0").
func TestFaultsArmAfterPopulate(t *testing.T) {
	gen := workload.NewGenerator(workload.SysBench(), workload.Options{Scale: 1.0 / 256, Seed: 42})
	sys, err := Build(ICASH, BuildConfig{
		DataBlocks: gen.DataBlocks(),
		Shards:     2,
		Faults: &fault.Schedule{Windows: []fault.Window{
			{To: fault.Forever, Rates: fault.Rates{Transient: 1}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetFill(gen.Fill)
	if err := Populate(sys, gen); err != nil {
		t.Fatalf("populate under the plan: %v", err)
	}
	buf := make([]byte, blockdev.BlockSize)
	for _, dev := range []*fault.Device{sys.SSDFault, sys.HDDFault} {
		if _, err := dev.ReadBlock(0, buf); !errors.Is(err, blockdev.ErrTransient) {
			t.Errorf("first measured read: %v, want ErrTransient", err)
		}
	}
}
