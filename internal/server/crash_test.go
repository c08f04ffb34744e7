package server

import (
	"testing"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/fault"
	"icash/internal/fault/crashtest"
	"icash/internal/sim"
	"icash/internal/spec"
)

// The crash sweep's deterministic frame workload. The same seed always
// produces the same frame script and therefore the same HDD write
// sequence — which is what lets a traced dry run enumerate crash
// points for the armed runs, exactly like the in-process crash harness.
const (
	crashSeed       = 1701
	crashOps        = 400
	crashLBASpace   = 96
	crashWriteFrac  = 0.6
	crashFlushEvery = 25
	crashMaxBurst   = 4 // pipelined frames per Feed; crashes land mid-burst
)

// serveRig is one crash run's world: controller on a crashable HDD,
// driven through a session.
type serveRig struct {
	cfg  core.Config
	ssd  *blockdev.MemDevice
	hddF *fault.Device
	ctrl *core.Controller
	sess *Session
}

func buildServeRig(t *testing.T) *serveRig {
	t.Helper()
	cfg := core.NewDefaultConfig(4096, 256, 64<<10, 256<<10)
	cfg.ScanPeriod = 100
	cfg.ScanWindow = 400
	cfg.LogBlocks = 64
	cfg.FlushPeriodOps = 0
	cfg.FlushDirtyBytes = 1 << 30
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant(clock)
	ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
	hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
	hddF := fault.Wrap(hdd, fault.Config{Seed: crashSeed, Clock: clock, Station: "hdd"})
	ctrl, err := core.New(cfg, ssd, hddF, clock, cpu)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return &serveRig{cfg: cfg, ssd: ssd, hddF: hddF, ctrl: ctrl,
		sess: NewSession("crash", ctrl, SessionOptions{MaxWindow: 8})}
}

// genBlock fills a deterministic content block for one write.
func genBlock(rnd *sim.Rand) []byte {
	b := make([]byte, blockdev.BlockSize)
	rnd.Bytes(b)
	return b
}

// runServedCrashWorkload replays the deterministic frame script against
// the rig's session, keeping the spec in step with what the wire
// acknowledged: a write is acknowledged when its reply is seen, the
// durable floor rises when a flush reply is seen, and a read reply must
// hold content the spec accepts. A power cut fires inside Feed — after
// frame decode, before that request's reply is emitted — so the replies
// already in the returned buffer identify exactly which requests of the
// burst completed.
func runServedCrashWorkload(t *testing.T, rig *serveRig, disk *spec.Disk) (crashed bool) {
	t.Helper()
	if _, err := rig.sess.Feed(AppendHello(nil, Hello{Version: ProtocolVersion, WantWindow: 8, VM: AnyVM})); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	rnd := sim.NewRand(crashSeed)
	id := uint64(1)

	type scripted struct {
		op      uint8
		lba     int64
		content []byte
	}
	for issued := 0; issued < crashOps; {
		burstN := 1 + rnd.Intn(crashMaxBurst)
		var frames []byte
		var burst []scripted
		for j := 0; j < burstN && issued < crashOps; j++ {
			lba := int64(rnd.Intn(crashLBASpace))
			if rnd.Float64() < crashWriteFrac {
				content := genBlock(rnd)
				frames = AppendRequest(frames, Request{Op: OpWrite, ID: id, LBA: uint64(lba), Blocks: 1, Payload: content})
				burst = append(burst, scripted{op: OpWrite, lba: lba, content: content})
			} else {
				frames = AppendRequest(frames, Request{Op: OpRead, ID: id, LBA: uint64(lba), Blocks: 1})
				burst = append(burst, scripted{op: OpRead, lba: lba})
			}
			id++
			issued++
			if issued%crashFlushEvery == 0 {
				frames = AppendRequest(frames, Request{Op: OpFlush, ID: id})
				burst = append(burst, scripted{op: OpFlush})
				id++
			}
		}

		out, err := rig.sess.Feed(frames)
		// The replies already emitted are acknowledgements: their
		// requests completed against the array before any crash.
		var d Decoder
		d.Feed(out)
		acked := 0
		for {
			rep, derr := d.NextReply()
			if derr != nil {
				break
			}
			s := burst[acked]
			if rep.Status == StatusOK {
				switch s.op {
				case OpWrite:
					disk.Write(s.lba, s.content, true)
				case OpFlush:
					disk.Flush()
				case OpRead:
					if err := disk.Check(s.lba, rep.Payload); err != nil {
						t.Fatalf("read %d: %v", rep.ID, err)
					}
				}
			}
			acked++
		}

		if err != nil {
			if blockdev.Classify(err) != blockdev.ClassDeviceLost {
				t.Fatalf("workload error other than the armed power cut: %v", err)
			}
			// The request the cut interrupted is burst[acked]: decoded,
			// executing, reply never emitted. An interrupted write may
			// still surface after recovery if its log record landed; an
			// interrupted flush was never acknowledged: no floor raise.
			if acked < len(burst) && burst[acked].op == OpWrite {
				disk.Write(burst[acked].lba, burst[acked].content, false)
			}
			return true
		}
		if acked != len(burst) {
			t.Fatalf("clean burst acked %d of %d requests", acked, len(burst))
		}
	}
	return false
}

// TestServedCrashSweep cuts power at log writes reached through the
// block-service path — mid-burst, between frame decode and reply
// emission — then powers the array back on (crashtest.PowerOn) and
// holds it to the wire's promises: no write the server acknowledged as
// durable (flush/close reply) may be lost, no recovered block may hold
// content never written, the journal audit must agree with recovery's
// discard count, and the controller invariants must hold. This is the
// served twin of the in-process crashtest sweep.
func TestServedCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is not a -short test")
	}

	// Dry run: trace every HDD write and collect the 1-indexed write
	// counts landing in the delta-log region.
	dry := buildServeRig(t)
	dry.hddF.TraceWrites = true
	if crashed := runServedCrashWorkload(t, dry, spec.New(nil)); crashed {
		t.Fatal("dry run crashed with nothing armed")
	}
	if err := dry.sess.CloseStream(); err != nil {
		t.Fatalf("dry run close: %v", err)
	}
	var points []int64
	for i, lba := range dry.hddF.WriteLog {
		if lba >= dry.cfg.VirtualBlocks {
			points = append(points, int64(i+1))
		}
	}
	if len(points) < 8 {
		t.Fatalf("only %d log-write crash points traced; the workload must flush more", len(points))
	}

	// Spread ~8 crash points across the run, each with a healthy spread
	// of torn-write sizes (0 = cut before the block, partial tears, and
	// a full-block landing).
	picks := make([]int64, 0, 8)
	for i := 0; i < 8; i++ {
		picks = append(picks, points[i*(len(points)-1)/7])
	}
	torn := []int{0, 1, 100, 2048, 4096}

	for _, point := range picks {
		for _, tear := range torn {
			d := spec.New(nil)
			rig := buildServeRig(t)
			rig.hddF.SetCrashAfterWrites(point, tear)
			if crashed := runServedCrashWorkload(t, rig, d); !crashed {
				t.Fatalf("point %d tear %d: armed crash never fired (saw %d writes)",
					point, tear, rig.hddF.WritesSeen())
			}
			rig.hddF.Restore()
			media := []crashtest.Media{{SSD: rig.ssd, HDD: rig.hddF}}
			if _, err := crashtest.PowerOn(rig.cfg, media, crashLBASpace, d); err != nil {
				t.Fatalf("point %d tear %d: %v", point, tear, err)
			}
		}
	}
}
