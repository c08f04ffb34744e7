package server

import (
	"bytes"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

// confEnv is one conformance case's world: a real controller behind a
// session, with the surviving media kept for recovery-based assertions.
type confEnv struct {
	cfg  core.Config
	ssd  *blockdev.MemDevice
	hdd  *blockdev.MemDevice
	ctrl *core.Controller
	sess *Session
}

// newConfEnv builds a small controller (journal in group-commit mode,
// no op-count flush triggers so the tests control durability points)
// and a session over it.
func newConfEnv(t *testing.T, opt SessionOptions) *confEnv {
	t.Helper()
	cfg := core.NewDefaultConfig(4096, 256, 64<<10, 256<<10)
	cfg.ScanPeriod = 100
	cfg.ScanWindow = 400
	cfg.LogBlocks = 64
	cfg.FlushPeriodOps = 0
	cfg.FlushDirtyBytes = 1 << 30
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
	hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
	ctrl, err := core.New(cfg, ssd, hdd, clock, cpu)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return &confEnv{cfg: cfg, ssd: ssd, hdd: hdd, ctrl: ctrl, sess: NewSession("conf", ctrl, opt)}
}

// hello completes the handshake and asserts the reply bytes are exactly
// the expected grant.
func (e *confEnv) hello(t *testing.T, h Hello, want HelloReply) {
	t.Helper()
	out, err := e.sess.Feed(AppendHello(nil, h))
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if wantBytes := AppendHelloReply(nil, want); !bytes.Equal(out, wantBytes) {
		t.Fatalf("handshake reply bytes:\n got %x\nwant %x", out, wantBytes)
	}
}

// defaultHello is the plain whole-disk handshake most cases start with.
func (e *confEnv) defaultHello(t *testing.T, window uint16) {
	t.Helper()
	e.hello(t,
		Hello{Version: ProtocolVersion, WantWindow: window, VM: AnyVM},
		HelloReply{Version: ProtocolVersion, Window: window, Status: HandshakeOK,
			BlockSize: blockdev.BlockSize, Blocks: uint64(e.cfg.VirtualBlocks)})
}

// pattern fills a block with a recognizable per-LBA pattern.
func pattern(lba int64, salt byte) []byte {
	b := make([]byte, blockdev.BlockSize)
	for i := range b {
		b[i] = byte(int64(i)*3+lba) ^ salt
	}
	return b
}

// TestConformance is the scripted byte-level protocol suite: each case
// feeds hand-built wire bytes and asserts both the reply bytes and the
// controller-visible effects.
func TestConformance(t *testing.T) {
	t.Run("handshake/window-capped", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		// The client asks for more than the server allows; the grant is
		// the server's cap, spelled out in the reply bytes.
		e.hello(t,
			Hello{Version: ProtocolVersion, WantWindow: 50, VM: AnyVM},
			HelloReply{Version: ProtocolVersion, Window: 8, Status: HandshakeOK,
				BlockSize: blockdev.BlockSize, Blocks: uint64(e.cfg.VirtualBlocks)})
		if e.sess.State() != StateServing {
			t.Fatalf("state %s, want serving", e.sess.State())
		}
		if e.sess.Window() != 8 {
			t.Fatalf("window %d, want 8", e.sess.Window())
		}
	})

	t.Run("handshake/bad-version", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		out, err := e.sess.Feed(AppendHello(nil, Hello{Version: 2, WantWindow: 4, VM: AnyVM}))
		if code, ok := FaultOf(err); !ok || code != FaultVersion {
			t.Fatalf("got %v, want FaultVersion", err)
		}
		want := AppendHelloReply(nil, HelloReply{Version: ProtocolVersion, Status: RefuseVersion})
		if !bytes.Equal(out, want) {
			t.Fatalf("refusal bytes:\n got %x\nwant %x", out, want)
		}
		if e.sess.State() != StateClosed {
			t.Fatalf("state %s, want closed after refusal", e.sess.State())
		}
	})

	t.Run("handshake/vm-refused", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{
			MaxWindow: 8,
			Partition: func(vm uint32) (int64, int64, bool) {
				if vm >= 4 {
					return 0, 0, false
				}
				return int64(vm) * 1024, 1024, true
			},
		})
		out, err := e.sess.Feed(AppendHello(nil, Hello{Version: ProtocolVersion, WantWindow: 4, VM: 7}))
		if code, ok := FaultOf(err); !ok || code != FaultVM {
			t.Fatalf("got %v, want FaultVM", err)
		}
		want := AppendHelloReply(nil, HelloReply{Version: ProtocolVersion, Status: RefuseVM})
		if !bytes.Equal(out, want) {
			t.Fatalf("refusal bytes:\n got %x\nwant %x", out, want)
		}
	})

	t.Run("handshake/partition-granted", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{
			MaxWindow: 8,
			Partition: func(vm uint32) (int64, int64, bool) { return int64(vm) * 1024, 1024, true },
		})
		e.hello(t,
			Hello{Version: ProtocolVersion, WantWindow: 4, VM: 2},
			HelloReply{Version: ProtocolVersion, Window: 4, Status: HandshakeOK,
				BlockSize: blockdev.BlockSize, FirstLBA: 2048, Blocks: 1024})
		// A request outside the granted partition is StatusRange — the
		// session stays up, the array is never asked.
		out, err := e.sess.Feed(AppendRequest(nil, Request{Op: OpRead, ID: 1, LBA: 100, Blocks: 1}))
		if err != nil {
			t.Fatalf("out-of-partition read: %v", err)
		}
		want := AppendReply(nil, Reply{Op: OpRead, Status: StatusRange, ID: 1})
		if !bytes.Equal(out, want) {
			t.Fatalf("range reply bytes:\n got %x\nwant %x", out, want)
		}
		if e.sess.State() != StateServing {
			t.Fatalf("state %s, want serving after a range error", e.sess.State())
		}
	})

	t.Run("pipelined-reads", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 4)
		// Seed content through the controller directly, then read it back
		// through the wire — three pipelined requests in one burst.
		var contents [3][]byte
		for i := range contents {
			contents[i] = pattern(int64(10+i), 0x5A)
			if _, err := e.ctrl.WriteBlock(int64(10+i), contents[i]); err != nil {
				t.Fatalf("seed write: %v", err)
			}
		}
		var burst []byte
		for i := range contents {
			burst = AppendRequest(burst, Request{Op: OpRead, ID: uint64(i + 1), LBA: uint64(10 + i), Blocks: 1})
		}
		out, err := e.sess.Feed(burst)
		if err != nil {
			t.Fatalf("pipelined reads: %v", err)
		}
		// Replies come back in request order, each carrying the exact
		// content with a valid payload CRC.
		var want []byte
		for i := range contents {
			want = AppendReply(want, Reply{Op: OpRead, Status: StatusOK, ID: uint64(i + 1), Payload: contents[i]})
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("pipelined reply stream diverges (%d vs %d bytes)", len(out), len(want))
		}
		if st := e.sess.Stats(); st.Reads != 3 || st.Requests != 3 {
			t.Fatalf("stats %+v, want 3 reads", st)
		}
	})

	t.Run("write-flush-durability", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 4)
		content := pattern(42, 0x17)
		burst := AppendRequest(nil, Request{Op: OpWrite, ID: 1, LBA: 42, Blocks: 1, Payload: content})
		burst = AppendRequest(burst, Request{Op: OpFlush, ID: 2})
		out, err := e.sess.Feed(burst)
		if err != nil {
			t.Fatalf("write+flush: %v", err)
		}
		want := AppendReply(nil, Reply{Op: OpWrite, Status: StatusOK, ID: 1})
		want = AppendReply(want, Reply{Op: OpFlush, Status: StatusOK, ID: 2})
		if !bytes.Equal(out, want) {
			t.Fatalf("write+flush reply bytes:\n got %x\nwant %x", out, want)
		}
		// Controller-visible: the content reads back and the flush went
		// through the group-commit journal as a committed transaction.
		buf := make([]byte, blockdev.BlockSize)
		if _, err := e.ctrl.ReadBlock(42, buf); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(buf, content) {
			t.Fatal("flushed content does not read back")
		}
		if e.ctrl.Stats.TxnsCommitted == 0 {
			t.Fatal("flush acknowledged but no journal transaction committed")
		}
		if n, err := e.ctrl.AuditJournal(); err != nil || n != 0 {
			t.Fatalf("journal audit after flush: %d incomplete, err %v", n, err)
		}
	})

	t.Run("window-full-backpressure", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 2)
		before := pattern(5, 0)
		if _, err := e.ctrl.WriteBlock(5, before); err != nil {
			t.Fatalf("seed: %v", err)
		}
		// Three writes in one burst against a window of two: the whole
		// burst is rejected before any executes — over-pipelining must
		// not get partial side effects.
		var burst []byte
		for i := 0; i < 3; i++ {
			burst = AppendRequest(burst, Request{Op: OpWrite, ID: uint64(i + 1), LBA: 5, Blocks: 1, Payload: pattern(5, byte(i+1))})
		}
		out, err := e.sess.Feed(burst)
		if code, ok := FaultOf(err); !ok || code != FaultWindow {
			t.Fatalf("got %v, want FaultWindow", err)
		}
		if len(out) != 0 {
			t.Fatalf("%d reply bytes emitted for a rejected burst", len(out))
		}
		if e.sess.State() != StateFailed {
			t.Fatalf("state %s, want failed", e.sess.State())
		}
		buf := make([]byte, blockdev.BlockSize)
		if _, err := e.ctrl.ReadBlock(5, buf); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(buf, before) {
			t.Fatal("rejected burst still mutated the array")
		}
		if st := e.sess.Stats(); st.Writes != 0 {
			t.Fatalf("stats %+v, want zero executed writes", st)
		}
	})

	t.Run("dup-id-in-flight", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 4)
		burst := AppendRequest(nil, Request{Op: OpRead, ID: 9, LBA: 0, Blocks: 1})
		burst = AppendRequest(burst, Request{Op: OpRead, ID: 9, LBA: 1, Blocks: 1})
		_, err := e.sess.Feed(burst)
		if code, ok := FaultOf(err); !ok || code != FaultDupID {
			t.Fatalf("got %v, want FaultDupID", err)
		}
		// A retired id is reusable: the in-flight set empties once
		// replies are emitted, so sequential reuse is legal.
		e2 := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e2.defaultHello(t, 4)
		for i := 0; i < 2; i++ {
			if _, err := e2.sess.Feed(AppendRequest(nil, Request{Op: OpRead, ID: 9, LBA: 0, Blocks: 1})); err != nil {
				t.Fatalf("sequential id reuse round %d: %v", i, err)
			}
		}
	})

	t.Run("mid-transaction-disconnect", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 4)
		frame := AppendRequest(nil, Request{Op: OpWrite, ID: 1, LBA: 3, Blocks: 1, Payload: pattern(3, 0x33)})
		// The peer dies halfway through the frame.
		out, err := e.sess.Feed(frame[:len(frame)/2])
		if err != nil || len(out) != 0 {
			t.Fatalf("partial frame: out %d bytes, err %v", len(out), err)
		}
		err = e.sess.CloseStream()
		if code, ok := FaultOf(err); !ok || code != FaultTruncated {
			t.Fatalf("got %v, want FaultTruncated", err)
		}
		if e.sess.State() != StateFailed {
			t.Fatalf("state %s, want failed", e.sess.State())
		}
		// The half-received write never touched the array, and the array
		// is still internally consistent.
		buf := make([]byte, blockdev.BlockSize)
		if _, err := e.ctrl.ReadBlock(3, buf); err != nil {
			t.Fatalf("read back: %v", err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("half-received write leaked into the array")
			}
		}
		if err := e.ctrl.CheckInvariants(); err != nil {
			t.Fatalf("invariants after disconnect: %v", err)
		}
	})

	t.Run("clean-disconnect-between-frames", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 4)
		if _, err := e.sess.Feed(AppendRequest(nil, Request{Op: OpRead, ID: 1, LBA: 0, Blocks: 1})); err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := e.sess.CloseStream(); err != nil {
			t.Fatalf("clean close: %v", err)
		}
		if e.sess.State() != StateClosed {
			t.Fatalf("state %s, want closed", e.sess.State())
		}
	})

	t.Run("graceful-shutdown-drain", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 4)
		content := pattern(77, 0x77)
		burst := AppendRequest(nil, Request{Op: OpWrite, ID: 1, LBA: 77, Blocks: 1, Payload: content})
		burst = AppendRequest(burst, Request{Op: OpClose, ID: 2})
		out, err := e.sess.Feed(burst)
		if err != nil {
			t.Fatalf("write+close: %v", err)
		}
		want := AppendReply(nil, Reply{Op: OpWrite, Status: StatusOK, ID: 1})
		want = AppendReply(want, Reply{Op: OpClose, Status: StatusOK, ID: 2})
		if !bytes.Equal(out, want) {
			t.Fatalf("close reply bytes:\n got %x\nwant %x", out, want)
		}
		if e.sess.State() != StateClosed {
			t.Fatalf("state %s, want closed", e.sess.State())
		}
		// The close ack promised a journal drain: the write survives a
		// power cycle. Model one — fresh controller recovered from the
		// same media — and read the block back.
		clock := sim.NewClock()
		cpu := cpumodel.NewAccountant()
		rc, err := core.Recover(e.cfg, e.ssd, e.hdd, clock, cpu)
		if err != nil {
			t.Fatalf("recover after close: %v", err)
		}
		buf := make([]byte, blockdev.BlockSize)
		if _, err := rc.ReadBlock(77, buf); err != nil {
			t.Fatalf("read back after recovery: %v", err)
		}
		if !bytes.Equal(buf, content) {
			t.Fatal("close-acknowledged write did not survive recovery")
		}
	})

	t.Run("frames-after-close", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 4)
		burst := AppendRequest(nil, Request{Op: OpClose, ID: 1})
		burst = AppendRequest(burst, Request{Op: OpRead, ID: 2, LBA: 0, Blocks: 1})
		_, err := e.sess.Feed(burst)
		if code, ok := FaultOf(err); !ok || code != FaultState {
			t.Fatalf("got %v, want FaultState", err)
		}
	})

	t.Run("bytes-before-handshake-reply", func(t *testing.T) {
		// A request frame where the hello should be is a framing fault:
		// the magics are distinct exactly so this is caught immediately.
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		_, err := e.sess.Feed(AppendRequest(nil, Request{Op: OpRead, ID: 1, LBA: 0, Blocks: 1}))
		if code, ok := FaultOf(err); !ok || code != FaultMagic {
			t.Fatalf("got %v, want FaultMagic", err)
		}
	})

	t.Run("corrupt-request-crc", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 4)
		frame := AppendRequest(nil, Request{Op: OpRead, ID: 1, LBA: 0, Blocks: 1})
		frame[10] ^= 0x01 // flip an id bit under the header CRC
		_, err := e.sess.Feed(frame)
		if code, ok := FaultOf(err); !ok || code != FaultCRC {
			t.Fatalf("got %v, want FaultCRC", err)
		}
		if e.sess.State() != StateFailed {
			t.Fatalf("state %s, want failed", e.sess.State())
		}
	})

	t.Run("device-error-absorbed-vs-fatal", func(t *testing.T) {
		// Media-class errors become StatusIO replies and the session
		// stays up; device-lost is fatal and surfaces wrapped, so the
		// caller can classify it with blockdev.Classify.
		mb := &memBackend{n: 64}
		mb.failLBA, mb.failErr = 7, blockdev.ErrMedia
		sess := NewSession("errs", mb, SessionOptions{MaxWindow: 8})
		if _, err := sess.Feed(AppendHello(nil, Hello{Version: ProtocolVersion, WantWindow: 4, VM: AnyVM})); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		out, err := sess.Feed(AppendRequest(nil, Request{Op: OpRead, ID: 1, LBA: 7, Blocks: 1}))
		if err != nil {
			t.Fatalf("absorbed error killed the session: %v", err)
		}
		want := AppendReply(nil, Reply{Op: OpRead, Status: StatusIO, ID: 1})
		if !bytes.Equal(out, want) {
			t.Fatalf("StatusIO reply bytes:\n got %x\nwant %x", out, want)
		}
		if sess.State() != StateServing {
			t.Fatalf("state %s, want serving after an absorbed error", sess.State())
		}
		if st := sess.Stats(); st.StatusErrors != 1 {
			t.Fatalf("stats %+v, want one status error", st)
		}

		mb.failErr = blockdev.ErrDeviceLost
		_, err = sess.Feed(AppendRequest(nil, Request{Op: OpRead, ID: 2, LBA: 7, Blocks: 1}))
		if blockdev.Classify(err) != blockdev.ClassDeviceLost {
			t.Fatalf("got %v, want a wrapped device-lost error", err)
		}
		if sess.State() != StateFailed {
			t.Fatalf("state %s, want failed after device loss", sess.State())
		}
	})

	t.Run("trim-zeroes", func(t *testing.T) {
		e := newConfEnv(t, SessionOptions{MaxWindow: 8})
		e.defaultHello(t, 4)
		if _, err := e.ctrl.WriteBlock(20, pattern(20, 0xFF)); err != nil {
			t.Fatalf("seed: %v", err)
		}
		out, err := e.sess.Feed(AppendRequest(nil, Request{Op: OpTrim, ID: 1, LBA: 20, Blocks: 1}))
		if err != nil {
			t.Fatalf("trim: %v", err)
		}
		want := AppendReply(nil, Reply{Op: OpTrim, Status: StatusOK, ID: 1})
		if !bytes.Equal(out, want) {
			t.Fatalf("trim reply bytes:\n got %x\nwant %x", out, want)
		}
		buf := make([]byte, blockdev.BlockSize)
		if _, err := e.ctrl.ReadBlock(20, buf); err != nil {
			t.Fatalf("read back: %v", err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("trimmed block still has content")
			}
		}
	})
}

// memBackend is a minimal in-memory Backend for session-level tests
// that need controlled error injection without a controller.
type memBackend struct {
	n       int64
	blocks  map[int64][]byte
	failLBA int64
	failErr error
	flushes int
}

func (m *memBackend) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if lba < 0 || lba >= m.n {
		return 0, blockdev.ErrOutOfRange
	}
	if m.failErr != nil && lba == m.failLBA {
		return 0, m.failErr
	}
	if b, ok := m.blocks[lba]; ok {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return sim.Microsecond, nil
}

func (m *memBackend) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if lba < 0 || lba >= m.n {
		return 0, blockdev.ErrOutOfRange
	}
	if m.failErr != nil && lba == m.failLBA {
		return 0, m.failErr
	}
	if m.blocks == nil {
		m.blocks = make(map[int64][]byte)
	}
	m.blocks[lba] = append([]byte(nil), buf...)
	return sim.Microsecond, nil
}

func (m *memBackend) Flush() error  { m.flushes++; return nil }
func (m *memBackend) Blocks() int64 { return m.n }
