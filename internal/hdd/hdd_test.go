package hdd

import (
	"bytes"
	"testing"
	"testing/quick"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	d := New(DefaultConfig(1024))
	buf := make([]byte, blockdev.BlockSize)
	out := make([]byte, blockdev.BlockSize)
	r := sim.NewRand(1)
	model := map[int64][]byte{}
	for i := 0; i < 2000; i++ {
		lba := int64(r.Intn(1024))
		if r.Float64() < 0.5 {
			r.Bytes(buf)
			if _, err := d.WriteBlock(lba, buf); err != nil {
				t.Fatal(err)
			}
			model[lba] = append([]byte(nil), buf...)
		} else {
			if _, err := d.ReadBlock(lba, out); err != nil {
				t.Fatal(err)
			}
			want := model[lba]
			if want == nil {
				want = make([]byte, blockdev.BlockSize)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("lba %d mismatch", lba)
			}
		}
	}
}

func TestSequentialVsRandom(t *testing.T) {
	cfg := DefaultConfig(1 << 20) // large disk: long seeks possible
	d := New(cfg)
	buf := make([]byte, blockdev.BlockSize)

	// Sequential scan: after the first access, transfer-only.
	var seqTotal sim.Duration
	for lba := int64(0); lba < 256; lba++ {
		dur, _ := d.ReadBlock(lba, buf)
		if lba > 0 {
			seqTotal += dur
		}
	}
	seqAvg := seqTotal / 255

	// Random far accesses: seek + rotation.
	d2 := New(cfg)
	var rndTotal sim.Duration
	r := sim.NewRand(2)
	for i := 0; i < 255; i++ {
		dur, _ := d2.ReadBlock(r.Int63n(1<<20), buf)
		rndTotal += dur
	}
	rndAvg := rndTotal / 255

	if seqAvg*20 > rndAvg {
		t.Fatalf("sequential (%v) should be far cheaper than random (%v)", seqAvg, rndAvg)
	}
	if d.Stats.SequentialOps < 250 {
		t.Fatalf("sequential ops = %d", d.Stats.SequentialOps)
	}
}

func TestSeekCurveMonotone(t *testing.T) {
	d := New(DefaultConfig(1 << 20))
	last := sim.Duration(0)
	for _, dist := range []int{1, 10, 100, 1000, 10000} {
		s := d.seekTime(dist)
		if s < last {
			t.Fatalf("seek(%d) = %v decreased from %v", dist, s, last)
		}
		last = s
	}
	if d.seekTime(0) != 0 {
		t.Fatal("zero distance must cost nothing")
	}
	if d.seekTime(1) < d.cfg.TrackToTrackSeek {
		t.Fatal("minimum seek below track-to-track time")
	}
	if d.seekTime(1<<30) > d.cfg.MaxSeek {
		t.Fatal("seek exceeds full stroke")
	}
}

func TestMultiStreamDetection(t *testing.T) {
	// Two interleaved sequential streams must both be recognized, the
	// way drive read-ahead firmware handles them.
	d := New(DefaultConfig(1 << 20))
	buf := make([]byte, blockdev.BlockSize)
	a, b := int64(0), int64(500000)
	var total sim.Duration
	for i := 0; i < 100; i++ {
		da, _ := d.ReadBlock(a, buf)
		db, _ := d.ReadBlock(b, buf)
		if i > 0 {
			total += da + db
		}
		a++
		b++
	}
	avg := total / 198
	if avg > 500*sim.Microsecond {
		t.Fatalf("interleaved streams average %v; stream detection broken", avg)
	}
}

func TestWriteBufferAbsorbsBursts(t *testing.T) {
	cfg := DefaultConfig(1 << 20)
	d := New(cfg)
	buf := make([]byte, blockdev.BlockSize)
	r := sim.NewRand(3)
	var fast int
	for i := 0; i < cfg.WriteCacheBlocks; i++ {
		dur, _ := d.WriteBlock(r.Int63n(1<<20), buf)
		if dur == cfg.BufferLatency {
			fast++
		}
	}
	if fast == 0 {
		t.Fatal("write buffer never absorbed a random write")
	}
	if d.Stats.BufferedWrites == 0 {
		t.Fatal("buffered writes not counted")
	}
}

func TestBounds(t *testing.T) {
	d := New(DefaultConfig(10))
	buf := make([]byte, blockdev.BlockSize)
	if _, err := d.ReadBlock(10, buf); err == nil {
		t.Error("out of range read must fail")
	}
	if _, err := d.WriteBlock(-1, buf); err == nil {
		t.Error("negative write must fail")
	}
	if _, err := d.WriteBlock(0, buf[:1]); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestFillOracleAndPreload(t *testing.T) {
	d := New(DefaultConfig(64))
	d.SetFill(func(lba int64, buf []byte) { buf[0] = byte(lba) + 1 })
	buf := make([]byte, blockdev.BlockSize)
	d.ReadBlock(3, buf)
	if buf[0] != 4 {
		t.Fatal("fill oracle ignored")
	}
}

// Property: latency is always positive and bounded by max seek + full
// rotation + transfer; content round-trips.
func TestLatencyBoundsProperty(t *testing.T) {
	cfg := DefaultConfig(4096)
	bound := cfg.MaxSeek + sim.Duration(int64(60)*int64(sim.Second)/int64(cfg.RPM)) +
		sim.Duration(int64(blockdev.BlockSize)*int64(sim.Second)/cfg.TransferRate)
	f := func(seed uint64) bool {
		d := New(cfg)
		r := sim.NewRand(seed)
		buf := make([]byte, blockdev.BlockSize)
		for i := 0; i < 200; i++ {
			lba := int64(r.Intn(4096))
			var dur sim.Duration
			var err error
			if r.Float64() < 0.5 {
				dur, err = d.WriteBlock(lba, buf)
			} else {
				dur, err = d.ReadBlock(lba, buf)
			}
			if err != nil || dur <= 0 || dur > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
