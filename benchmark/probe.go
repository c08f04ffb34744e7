package main

import (
	"runtime"
	"sync"
	"time"

	"icash/internal/blockdev"
	"icash/internal/delta"
	"icash/internal/hdd"
	"icash/internal/lockmap"
	"icash/internal/metrics"
	"icash/internal/server"
	"icash/internal/sig"
	"icash/internal/sim"
	"icash/internal/sim/event"
	"icash/internal/ssd"
	"icash/internal/workload"
)

// Standalone probes: host ns per call of one layer's public functions,
// on inputs drawn from the workload's own generator. A probe runs only
// where its layer is on the workload's path; elsewhere the metric reads
// 0. They are the benchmark's microscope, not its gate: they say which
// layer's unit cost moved when an end-to-end number did.

const (
	probeRounds = 5    // batches per probe; the median batch is reported
	probeBlocks = 2048 // distinct blocks a probe cycles through
)

// nsPerCall runs probeRounds batches of n calls and returns the median
// batch's ns per call.
func nsPerCall(n int, fn func(i int)) float64 {
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int

// probes measures every probe metric that applies to w into v.
func (w *workloadSpec) probes(seed uint64, v values) {
	p, opts := w.profile(), w.options(seed)
	buf := make([]byte, blockdev.BlockSize)

	// workload: the request stream, write content, and initial fill.
	gen := workload.NewGenerator(p, opts)
	n := gen.NumOps()
	lbas := make([]int64, 0, n)
	start := time.Now()
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		lbas = append(lbas, req.LBA)
	}
	v["workload.next_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(lbas))
	v["workload.content_ns"] = nsPerCall(probeBlocks, func(i int) { gen.WriteContent(lbas[i%len(lbas)], buf) })
	v["workload.fill_ns"] = nsPerCall(probeBlocks, func(i int) { gen.Fill(int64(i)%gen.DataBlocks(), buf) })

	// Reference/target pairs at the profile's mutation rate: a block's
	// initial content and its content after one write.
	gen = workload.NewGenerator(p, opts)
	const pairs = 64
	refs, targets := make([][]byte, pairs), make([][]byte, pairs)
	for i := range refs {
		lba := lbas[i*len(lbas)/pairs]
		refs[i], targets[i] = make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
		gen.Fill(lba, refs[i])
		gen.WriteContent(lba, targets[i])
	}
	v["sig.signature_ns"] = nsPerCall(probeBlocks, func(i int) { sink += int(sig.Compute(targets[i%pairs])[0]) })

	if w.writes {
		enc := make([]byte, 0, 2*blockdev.BlockSize)
		v["delta.encode_ns"] = nsPerCall(probeBlocks, func(i int) {
			d, _ := delta.AppendEncode(enc[:0], targets[i%pairs], refs[i%pairs], 0)
			sink += len(d)
		})
		v["delta.size_ns"] = nsPerCall(probeBlocks, func(i int) { sink += delta.Size(targets[i%pairs], refs[i%pairs]) })
		deltas := make([][]byte, pairs)
		for i := range deltas {
			deltas[i], _ = delta.Encode(targets[i], refs[i], 0)
		}
		dec := make([]byte, 0, blockdev.BlockSize)
		v["delta.decode_ns"] = nsPerCall(probeBlocks, func(i int) {
			out, err := delta.AppendDecode(dec[:0], refs[i%pairs], deltas[i%pairs])
			if err != nil {
				panic(err) // a delta this probe just encoded
			}
			sink += len(out)
		})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < probeBlocks; i++ {
			d, _ := delta.Encode(targets[i%pairs], refs[i%pairs], 0)
			sink += len(d)
		}
		runtime.ReadMemStats(&m1)
		v["delta.encode_allocs"] = float64(m1.Mallocs-m0.Mallocs) / probeBlocks
	}

	// Device models, standalone: every block written once, then random
	// reads and rewrites.
	rng := sim.NewRand(seed)
	sdev := ssd.New(ssd.DefaultConfig(probeBlocks))
	hdev := hdd.New(hdd.DefaultConfig(probeBlocks))
	for _, dev := range []blockdev.Device{sdev, hdev} {
		for lba := int64(0); lba < probeBlocks; lba++ {
			if _, err := dev.WriteBlock(lba, targets[lba%pairs]); err != nil {
				panic(err) // a fresh in-memory device model
			}
		}
	}
	devProbe := func(dev blockdev.Device, write bool) float64 {
		return nsPerCall(probeBlocks, func(i int) {
			lba := rng.Int63n(probeBlocks)
			var err error
			if write {
				_, err = dev.WriteBlock(lba, targets[i%pairs])
			} else {
				_, err = dev.ReadBlock(lba, buf)
			}
			if err != nil {
				panic(err)
			}
		})
	}
	v["ssd.read_host_ns"] = devProbe(sdev, false)
	v["ssd.write_host_ns"] = devProbe(sdev, true)
	v["hdd.read_host_ns"] = devProbe(hdev, false)
	v["hdd.write_host_ns"] = devProbe(hdev, true)

	if w.engine {
		// The scheduler with as many events outstanding as the widest
		// workload keeps requests in flight (64 streams x QD 8).
		const outstanding, events = 512, 100000
		v["event.schedule_ns"] = nsPerCall(1, func(int) {
			sch := event.NewScheduler(sim.NewClock())
			left := events
			var fire func()
			fire = func() {
				if left > 0 {
					left--
					sch.After(sim.Duration(1+rng.Intn(1000))*sim.Microsecond, fire)
				}
			}
			for i := 0; i < outstanding; i++ {
				sch.After(0, fire)
			}
			sch.Run()
		}) / (events + outstanding)
		srv := event.NewServer("probe", event.DefaultQueueCap)
		var at sim.Time
		v["event.admit_ns"] = nsPerCall(probeBlocks, func(int) {
			at = at.Add(50 * sim.Microsecond)
			_, done := srv.Admit(at, sim.Duration(20+rng.Intn(60))*sim.Microsecond)
			sink += int(done)
		})
	}

	v["blockdev.pool_ns"] = nsPerCall(probeBlocks, func(int) { blockdev.PutBlock(blockdev.GetBlock()) })
	var h metrics.Histogram
	v["metrics.record_ns"] = nsPerCall(probeBlocks, func(i int) { h.Record(sim.Duration(i) * sim.Microsecond) })

	if w.serve != nil {
		w.serveProbes(seed, v)
	}
}

// serveProbes measures the frame codec on the served request stream and
// the lockmap the ShardRouter serializes shards with.
func (w *workloadSpec) serveProbes(seed uint64, v values) {
	stream := newConnStream(w, seed, 0)
	var wire []byte
	v["server.frame_encode_ns"] = nsPerCall(probeBlocks, func(int) {
		wire = server.AppendRequest(wire[:0], stream.next())
	})
	var frames []byte
	for i := 0; i < probeBlocks; i++ {
		frames = server.AppendRequest(frames, stream.next())
	}
	v["server.frame_decode_ns"] = nsPerCall(1, func(int) {
		var dec server.Decoder
		dec.Feed(frames)
		for {
			req, err := dec.NextRequest()
			if err != nil {
				break // ErrNeedMore: the buffer is drained
			}
			sink += int(req.ID)
		}
	}) / probeBlocks

	var lm lockmap.LockMap
	v["lockmap.acquire_ns"] = nsPerCall(probeBlocks, func(i int) {
		lm.Acquire(uint64(i % w.shards))
		lm.Release(uint64(i % w.shards))
	})

	// Two goroutines fighting for one address, each holding it for about
	// the time a backend call takes: the mean wait to acquire.
	const rounds, hold = 2000, 5 * time.Microsecond
	var wg sync.WaitGroup
	waits := make([]time.Duration, 2)
	for g := range waits {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				t0 := time.Now()
				lm.Acquire(0)
				t1 := time.Now()
				waits[g] += t1.Sub(t0)
				for time.Since(t1) < hold {
				}
				lm.Release(0)
			}
		}(g)
	}
	wg.Wait()
	v["lockmap.contended_wait_us"] = float64((waits[0] + waits[1]).Nanoseconds()) / 1e3 / (2 * rounds)
}
