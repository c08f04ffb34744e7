package cpumodel

import (
	"testing"

	"icash/internal/sim"
)

func TestAccountant(t *testing.T) {
	a := NewAccountant()
	a.ChargeApp(30 * sim.Millisecond)
	a.ChargeStorage(10 * sim.Millisecond)
	if a.Busy() != 40*sim.Millisecond {
		t.Fatalf("busy = %v", a.Busy())
	}
}

func TestReset(t *testing.T) {
	a := NewAccountant()
	a.ChargeApp(5 * sim.Millisecond)
	a.Reset()
	if a.Busy() != 0 {
		t.Fatal("reset did not clear state")
	}
	a.ChargeStorage(1 * sim.Millisecond)
	if a.Busy() != 1*sim.Millisecond || a.AppTime != 0 {
		t.Fatalf("post-reset busy = %v, app %v", a.Busy(), a.AppTime)
	}
}

func TestDefaultCostsSane(t *testing.T) {
	c := DefaultCosts()
	// The paper: decompression ~10 µs; compression is the most
	// expensive write-path step; signatures are far cheaper than hashes.
	if c.DeltaDecode != 10*sim.Microsecond {
		t.Errorf("DeltaDecode = %v, paper says ~10µs", c.DeltaDecode)
	}
	if c.DeltaEncode <= c.DeltaDecode {
		t.Error("encode should cost more than decode")
	}
	if c.Signature >= c.HashBlock {
		t.Error("sampled sub-signatures must be cheaper than full hashing (§4.2)")
	}
}
