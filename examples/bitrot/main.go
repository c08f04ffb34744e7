// Silent-corruption defense: devices that lie. A disk that fails
// loudly is the easy case — the I-CASH controller also keeps a content
// checksum for every block it has seen, verifies it at each layer
// crossing, and runs a background scrubber, so even a device that
// returns wrong bytes with a clean status cannot get them to the host.
// Three demonstrations:
//
//  1. the whole flash rots (every SSD block gets a bit flipped behind
//     the controller's back) and every read is still served correct,
//     repaired from redundant copies;
//
//  2. a cold HDD home block rots: the read fails loudly (corruption,
//     not silence), and an overwrite cures the block;
//
//  3. the background scrubber finds rot proactively — damage on blocks
//     the host never touches is detected and healed in the background.
//
//     go run ./examples/bitrot
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"sort"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/hdd"
	"icash/internal/sim"
	"icash/internal/ssd"
)

func main() {
	cfg := core.NewDefaultConfig(4096, 256, 256<<10, 1<<20)
	cfg.ScanPeriod = 200
	cfg.ScanWindow = 800
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	flash := ssd.New(ssd.DefaultConfig(cfg.SSDBlocks))
	disk := hdd.New(hdd.DefaultConfig(cfg.VirtualBlocks + cfg.LogBlocks))
	ctrl, err := core.New(cfg, flash, disk, clock, cpu)
	if err != nil {
		log.Fatal(err)
	}

	// A content-local working set: families of similar blocks, so the
	// scan installs reference slots on the SSD and rewrites attach as
	// deltas — the flash ends up holding data the host depends on.
	template := make([]byte, blockdev.BlockSize)
	sim.NewRand(7).Bytes(template)
	content := func(lba int64, version int) []byte {
		b := append([]byte(nil), template...)
		cr := sim.NewRand(uint64(lba)*31 + uint64(version) + 1)
		for i := 0; i < 200; i++ {
			b[cr.Intn(len(b))] = byte(cr.Uint64())
		}
		return b
	}
	model := make(map[int64][]byte)
	r := sim.NewRand(42)
	fmt.Println("running a content-local workload (2,500 ops over 600 blocks)...")
	buf := make([]byte, blockdev.BlockSize)
	for op := 0; op < 2500; op++ {
		lba := int64(r.Intn(600))
		if r.Float64() < 0.5 {
			c := content(lba, op%4)
			if _, err := ctrl.WriteBlock(lba, c); err != nil {
				log.Fatal(err)
			}
			model[lba] = c
		} else if _, err := ctrl.ReadBlock(lba, buf); err != nil {
			log.Fatal(err)
		}
	}
	// The consistency point gives every write-through slot a home
	// backup: each flash block now has a verified redundant copy.
	if err := ctrl.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flash now holds %d reference slots\n\n", ctrl.LiveSlotCount())

	wholeFlashRot(ctrl, flash, model)
	homeRot(ctrl, disk, content)
	scrubberFindsColdRot(ctrl, disk, clock, content)

	if err := ctrl.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncontroller invariants hold after every act")
}

// wholeFlashRot flips one bit in EVERY flash block and reads the whole
// working set back: each read either returns the exact last-written
// bytes (detected and repaired from a redundant copy) or an accounted
// regression — never the rotted flash content.
func wholeFlashRot(ctrl *core.Controller, flash *ssd.Device, model map[int64][]byte) {
	fmt.Println("--- act 1: the whole flash rots ---")
	for i := int64(0); i < ctrl.Config().SSDBlocks; i++ {
		if err := flash.Corrupt(i, int(i*17+3)); err != nil {
			log.Fatal(err)
		}
	}
	before := ctrl.Stats
	buf := make([]byte, blockdev.BlockSize)
	lbas := make([]int64, 0, len(model))
	for lba := range model {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	exact, stale := 0, 0
	for _, lba := range lbas {
		want := model[lba]
		if _, err := ctrl.ReadBlock(lba, buf); err != nil {
			log.Fatalf("read %d after flash rot: %v", lba, err)
		}
		if bytes.Equal(buf, want) {
			exact++
		} else {
			stale++
		}
	}
	st := ctrl.Stats
	detected := st.CorruptionsDetected - before.CorruptionsDetected
	repaired := st.CorruptionsRepaired - before.CorruptionsRepaired
	accounted := (st.ScrubDataLoss + st.DegradedDataLoss + st.DroppedLogRecs) -
		(before.ScrubDataLoss + before.DegradedDataLoss + before.DroppedLogRecs)
	fmt.Printf("%d/%d reads exact after total flash rot; %d fell back to an older durable copy\n",
		exact, len(model), stale)
	fmt.Printf("detected %d lying flash reads, repaired %d in place, %d accounted regressions\n",
		detected, repaired, accounted)
	if int64(stale) > accounted {
		log.Fatalf("%d stale reads but only %d accounted: silent corruption leaked", stale, accounted)
	}
	fmt.Println("zero unaccounted wrong bytes reached the host")
}

// homeRot corrupts the HDD home of a cold, home-resident block: the
// next read fails loudly with a corruption error (a block with no
// second copy cannot be healed — but it can refuse to lie), and a
// fresh write cures it.
func homeRot(ctrl *core.Controller, disk *hdd.Device, content func(int64, int) []byte) {
	fmt.Println("\n--- act 2: a cold home block rots ---")
	const lba = 3900 // outside the working set: home-resident, cold
	if err := ctrl.Preload(lba, content(lba, 0)); err != nil {
		log.Fatal(err)
	}
	if err := disk.Corrupt(lba, 12345); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	_, err := ctrl.ReadBlock(lba, buf)
	if err == nil {
		log.Fatal("rotted home read returned success")
	}
	if !errors.Is(err, blockdev.ErrCorruption) {
		log.Fatalf("expected a corruption-classed error, got: %v", err)
	}
	fmt.Printf("read of the rotted block fails loudly: %v\n", err)
	fmt.Printf("block is poisoned (%d poisoned total) until rewritten\n", ctrl.PoisonedBlocks())
	if _, err := ctrl.WriteBlock(lba, content(lba, 1)); err != nil {
		log.Fatal(err)
	}
	if _, err := ctrl.ReadBlock(lba, buf); err != nil || !bytes.Equal(buf, content(lba, 1)) {
		log.Fatal("overwrite did not cure the poisoned block")
	}
	fmt.Println("a fresh write cures it: new content, new checksum, poison cleared")
}

// scrubberFindsColdRot arms the background scrubber and lets it sweep
// the array with no host I/O at all: rot on a block the host never
// reads is still detected, and — when a clean RAM copy exists — healed
// in the background.
func scrubberFindsColdRot(ctrl *core.Controller, disk *hdd.Device, clock *sim.Clock, content func(int64, int) []byte) {
	fmt.Println("\n--- act 3: the background scrubber ---")
	// One block with a clean cached copy (repairable) and one cold
	// (detectable only).
	const cached, cold = 3910, 3920
	for _, lba := range []int64{cached, cold} {
		if err := ctrl.Preload(lba, content(lba, 0)); err != nil {
			log.Fatal(err)
		}
	}
	buf := make([]byte, blockdev.BlockSize)
	if _, err := ctrl.ReadBlock(cached, buf); err != nil {
		log.Fatal(err) // leaves a clean RAM copy behind
	}
	for _, lba := range []int64{cached, cold} {
		if err := disk.Corrupt(lba, 777); err != nil {
			log.Fatal(err)
		}
	}
	before := ctrl.Stats
	ctrl.SetScrub(core.ScrubConfig{Interval: sim.Millisecond, Batch: 64})
	for i := 0; i < 100000 && ctrl.Stats.ScrubPasses == before.ScrubPasses; i++ {
		clock.Advance(sim.Millisecond)
		ctrl.ScrubPoll()
	}
	st := ctrl.Stats
	fmt.Printf("one full scrub pass: %d slot checks, %d home checks\n",
		st.ScrubSlotChecks-before.ScrubSlotChecks, st.ScrubHomeChecks-before.ScrubHomeChecks)
	fmt.Printf("found %d rotted blocks without any host read; healed %d from the clean RAM copy\n",
		st.CorruptionsDetected-before.CorruptionsDetected,
		st.CorruptionsRepaired-before.CorruptionsRepaired)
	if _, err := ctrl.ReadBlock(cached, buf); err != nil || !bytes.Equal(buf, content(cached, 0)) {
		log.Fatal("scrub-healed block did not read back clean")
	}
	fmt.Println("the healed block reads back clean; the unhealable one is poisoned, not lying:")
	if _, err := ctrl.ReadBlock(cold, buf); err != nil {
		fmt.Printf("  %v\n", err)
	} else {
		log.Fatal("cold rotted block served without error")
	}
}
