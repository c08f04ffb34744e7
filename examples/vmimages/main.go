// VM image sprawl (paper §2.2, §3.1 case 2): clone virtual machines
// share almost all of their disk image content. I-CASH stores one
// reference copy in the SSD and represents every clone's block as a
// tiny delta, so five VMs cost little more SSD than one.
//
//	go run ./examples/vmimages
package main

import (
	"fmt"
	"log"

	"icash"
	"icash/internal/core"
	"icash/internal/sim"
)

const (
	vms         = 5
	imageBlocks = 2048 // 8 MB per VM image
)

func main() {
	arr, err := icash.New(icash.Config{
		DataBlocks:    vms * imageBlocks,
		SSDBlocks:     imageBlocks / 2, // SSD holds 10% of the total data
		VMImageBlocks: imageBlocks,
		Tune: func(c *core.Config) {
			c.MaxSigDistance = 4
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Build the "native machine" image.
	base := make([][]byte, imageBlocks)
	r := sim.NewRand(42)
	for i := range base {
		base[i] = make([]byte, icash.BlockSize)
		r.Bytes(base[i])
	}

	// The clones differ from the native image in a few dozen bytes per
	// block (hostnames, keys, timestamps...).
	fmt.Println("populating 5 VM images (1 native + 4 clones)...")
	for vm := int64(0); vm < vms; vm++ {
		for i := int64(0); i < imageBlocks; i++ {
			img := append([]byte(nil), base[i]...)
			if vm > 0 {
				for j := 0; j < 32; j++ {
					img[(j*113)%len(img)] ^= byte(vm)
				}
			}
			if _, err := arr.Write(vm*imageBlocks+i, img); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Boot storm: every VM reads its whole image.
	fmt.Println("boot storm: all 5 VMs read their images...")
	buf := make([]byte, icash.BlockSize)
	var total int64
	for vm := int64(0); vm < vms; vm++ {
		for i := int64(0); i < imageBlocks; i++ {
			d, err := arr.Read(vm*imageBlocks+i, buf)
			if err != nil {
				log.Fatal(err)
			}
			total += int64(d)
		}
	}
	// Second pass: the steady state after reference selection.
	var second int64
	for vm := int64(0); vm < vms; vm++ {
		for i := int64(0); i < imageBlocks; i++ {
			d, err := arr.Read(vm*imageBlocks+i, buf)
			if err != nil {
				log.Fatal(err)
			}
			second += int64(d)
		}
	}

	st := arr.Stats()
	kinds := arr.KindCounts()
	n := int64(vms * imageBlocks)
	fmt.Println()
	fmt.Printf("first-pass avg read:   %dns (cold: HDD + pairing)\n", total/n)
	fmt.Printf("steady-state avg read: %dns (SSD reference + RAM delta)\n", second/n)
	fmt.Printf("first-load VM pairings: %d\n", st.FirstLoadPairs)
	fmt.Printf("block mix: %d references / %d associates / %d independents\n",
		kinds.Reference, kinds.Associate, kinds.Independent)
	fmt.Printf("5 VM images (%d blocks) are served by %d SSD slots — %.1fx logical-to-SSD expansion\n",
		n, arr.Controller().LiveSlotCount(),
		float64(kinds.Reference+kinds.Associate)/float64(max64(1, int64(arr.Controller().LiveSlotCount()))))
	fmt.Printf("avg delta: %.0f bytes per clone block\n", st.AvgDeltaSize())
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
