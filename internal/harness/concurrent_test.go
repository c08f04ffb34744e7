package harness

import (
	"errors"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/sim"
	"icash/internal/workload"
)

// TestQDScalingRAID0 is the tentpole's acceptance check: a 4-disk RAID0
// array serving uniform random reads must deliver at least 3x the QD=1
// throughput at QD=8 — four actuators genuinely seeking in parallel.
func TestQDScalingRAID0(t *testing.T) {
	p := workload.RandRead()
	throughput := func(qd int) float64 {
		opts := workload.Options{Scale: QDSweepScale, MaxOps: 4000, Seed: 42, QueueDepth: qd}
		br, err := RunBenchmark(p, opts, []Kind{RAID0})
		if err != nil {
			t.Fatal(err)
		}
		return br.Results[RAID0].ReqPerSec
	}
	base := throughput(1)
	got := throughput(8)
	if speedup := got / base; speedup < 3.0 {
		t.Fatalf("QD=8 speedup %.2fx (%.0f vs %.0f req/s), want >= 3x", speedup, got, base)
	}
}

// TestQDStations checks the per-station accounting of a RAID0 run:
// every run carries one station per member disk, and queue waits appear
// only when requests actually overlap — RAID0 leaves no background work
// on its disks, so a QD=1 run traces every block and waits for nothing.
func TestQDStations(t *testing.T) {
	p := workload.RandRead()
	run := func(qd int) *Result {
		opts := workload.Options{Scale: QDSweepScale, MaxOps: 2000, Seed: 42, QueueDepth: qd}
		br, err := RunBenchmark(p, opts, []Kind{RAID0})
		if err != nil {
			t.Fatal(err)
		}
		return br.Results[RAID0]
	}
	r1, r8 := run(1), run(8)

	if len(r1.Stations) != 4 {
		t.Fatalf("QD=1 station count %d, want 4 (one per member disk)", len(r1.Stations))
	}
	for _, st := range r1.Stations {
		if st.Ops == 0 || st.Wait.Count() != st.Ops || st.Wait.Max() != 0 {
			t.Fatalf("QD=1 station %s: %d ops, %d waits, max wait %v; want every op traced, none waiting",
				st.Name, st.Ops, st.Wait.Count(), st.Wait.Max())
		}
	}
	if blocks := r1.Reads + r1.Writes; r1.QueueWait.Count() != blocks || r1.QueueWait.Max() != 0 {
		t.Fatalf("QD=1 run recorded %d queue waits (max %v) for %d blocks, want one zero wait each",
			r1.QueueWait.Count(), r1.QueueWait.Max(), blocks)
	}
	if r8.QueueDepth != 8 || r8.Streams != 1 {
		t.Fatalf("qd/streams = %d/%d, want 8/1", r8.QueueDepth, r8.Streams)
	}
	if len(r8.Stations) != 4 {
		t.Fatalf("station count %d, want 4 (one per member disk)", len(r8.Stations))
	}
	var lowest, highest float64 = 2, 0
	for _, st := range r8.Stations {
		if st.Ops == 0 {
			t.Fatalf("station %s served nothing", st.Name)
		}
		if st.Utilization < lowest {
			lowest = st.Utilization
		}
		if st.Utilization > highest {
			highest = st.Utilization
		}
	}
	if lowest < 0.3 || highest > 1.0 {
		t.Fatalf("QD=8 member utilizations outside [0.3, 1.0]: low %.2f high %.2f", lowest, highest)
	}
	if r8.QueueWait.Count() == 0 || r8.QueueWait.Mean() == 0 {
		t.Fatalf("QD=8 run recorded no queueing (%d waits)", r8.QueueWait.Count())
	}
}

// TestMultiStreamInterleave runs a 5-VM profile as per-VM streams and
// checks the streams genuinely overlap: same total work, five streams
// reported, and wall-clock well below the serialized run on the same
// storage.
func TestMultiStreamInterleave(t *testing.T) {
	p := workload.TPCC5VM()
	run := func(perVM bool) *Result {
		opts := workload.Options{Scale: 1.0 / 256, MaxOps: 2000, Seed: 42, StreamPerVM: perVM}
		br, err := RunBenchmark(p, opts, []Kind{FusionIO})
		if err != nil {
			t.Fatal(err)
		}
		return br.Results[FusionIO]
	}
	serial, streamed := run(false), run(true)

	if streamed.Streams != 5 || streamed.QueueDepth != 1 {
		t.Fatalf("streams/qd = %d/%d, want 5/1", streamed.Streams, streamed.QueueDepth)
	}
	if streamed.Ops != serial.Ops {
		t.Fatalf("streamed ops %d != serial ops %d", streamed.Ops, serial.Ops)
	}
	// Five interleaved streams on parallel-capable storage must beat one
	// serialized stream by a clear margin (not necessarily 5x: the SSD
	// has 4 channels and requests share them).
	if streamed.Elapsed >= serial.Elapsed {
		t.Fatalf("streamed run (%v) not faster than serialized (%v)", streamed.Elapsed, serial.Elapsed)
	}
	if ratio := serial.Elapsed.Seconds() / streamed.Elapsed.Seconds(); ratio < 1.5 {
		t.Fatalf("stream overlap only %.2fx over serial, want >= 1.5x", ratio)
	}
}

// failAfterWalk lets the inner stack walk a block — so the devices note
// their station visits — and then fails the op.
type failAfterWalk struct{ blockdev.Device }

var errAfterWalk = errors.New("injected failure after the device walk")

func (f failAfterWalk) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	d, _ := f.Device.ReadBlock(lba, buf)
	return d, errAfterWalk
}

// TestTracedOpFailureTakesAndReplays pins the traced op's error path: a
// failing device op is taken and replayed like a successful one, so the
// station visits it made before failing are charged to their stations
// and the tracer is left idle — a later untraced walk must not append
// to the dead trace.
func TestTracedOpFailureTakesAndReplays(t *testing.T) {
	sys, err := Build(RAID0, BuildConfig{DataBlocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	inner := sys.Dev
	sys.Dev = failAfterWalk{inner}
	buf := make([]byte, blockdev.BlockSize)

	svc, _, err := sys.TracedOp(false, 7, buf, sys.Clock.Now())
	if !errors.Is(err, errAfterWalk) {
		t.Fatalf("TracedOp error = %v, want the injected failure", err)
	}
	var ops int64
	var busy sim.Duration
	for _, st := range sys.Stations {
		snap := st.Snapshot(0)
		ops, busy = ops+snap.Ops, busy+snap.Busy
	}
	if ops != 1 || busy != svc || svc == 0 {
		t.Fatalf("failed walk charged %d station ops, %v busy for a %v walk; want its one visit replayed", ops, busy, svc)
	}

	if _, err := inner.ReadBlock(8, buf); err != nil {
		t.Fatal(err)
	}
	if n := len(sys.Tracers[0].Take()); n != 1 {
		t.Fatalf("tracer holds %d segments after an untraced walk, want the failed op's 1: the failure left it active", n)
	}
}

// TestVMStreamsPartition checks the per-VM generators start every
// request inside their own image partition, keep every block inside
// their Span, and split the request budget exactly — on images larger
// and smaller than the longest request.
func TestVMStreamsPartition(t *testing.T) {
	p := workload.TPCC5VM()
	for _, scale := range []float64{1.0 / 256, 1e-6} {
		opts := workload.Options{Scale: scale, MaxOps: 5000, Seed: 7}
		if one := workload.NewGenerator(p, opts); len(one.Streams()) != 1 || one.Streams()[0] != one {
			t.Fatal("without StreamPerVM the generator is not its own single stream")
		}
		opts.StreamPerVM = true
		gen := workload.NewGenerator(p, opts)
		streams := gen.Streams()
		if len(streams) != 5 {
			t.Fatalf("stream count %d, want 5", len(streams))
		}
		total := 0
		img := gen.ImageBlocks()
		for vi, s := range streams {
			if s.VM() != vi {
				t.Fatalf("stream %d pinned to VM %d", vi, s.VM())
			}
			slo, shi := s.Span()
			n := 0
			for {
				req, ok := s.Next()
				if !ok {
					break
				}
				n++
				lo, hi := int64(vi)*img, int64(vi+1)*img
				if req.LBA < lo || req.LBA >= hi {
					t.Fatalf("stream %d request lba %d outside partition [%d, %d)", vi, req.LBA, lo, hi)
				}
				if req.LBA < slo || req.LBA+int64(req.Blocks) > shi {
					t.Fatalf("scale %g stream %d request [%d, %d) outside span [%d, %d)",
						scale, vi, req.LBA, req.LBA+int64(req.Blocks), slo, shi)
				}
			}
			if n != s.NumOps() {
				t.Fatalf("stream %d emitted %d of %d", vi, n, s.NumOps())
			}
			total += n
		}
		if total != gen.NumOps() {
			t.Fatalf("streams emitted %d total, want %d", total, gen.NumOps())
		}
	}
}
