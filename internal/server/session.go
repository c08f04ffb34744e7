package server

import (
	"fmt"
	"sync"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// Backend is what a session drives: the controller (or any system in
// the harness) viewed as a flushable block device. core.Controller
// satisfies it directly.
type Backend interface {
	ReadBlock(lba int64, buf []byte) (sim.Duration, error)
	WriteBlock(lba int64, buf []byte) (sim.Duration, error)
	Flush() error
	Blocks() int64
}

// SessionState is the session's lifecycle position.
type SessionState int

const (
	// StateHandshake: waiting for the client hello.
	StateHandshake SessionState = iota
	// StateServing: handshake done, requests flowing.
	StateServing
	// StateClosed: the session ended cleanly (OpClose acknowledged, a
	// handshake refusal, or a clean disconnect between frames).
	StateClosed
	// StateFailed: a protocol fault or fatal device error tore the
	// session down.
	StateFailed
)

// String names the state for diagnostics.
func (s SessionState) String() string {
	switch s {
	case StateHandshake:
		return "handshake"
	case StateServing:
		return "serving"
	case StateClosed:
		return "closed"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("SessionState(%d)", int(s))
	}
}

// SessionStats is the per-session accounting surfaced to icash-inspect.
type SessionStats struct {
	BytesIn  int64
	BytesOut int64
	Requests int64
	Reads    int64
	Writes   int64
	Flushes  int64
	Trims    int64
	// StatusErrors counts replies with a non-OK status (absorbed device
	// errors, out-of-partition requests).
	StatusErrors int64
	// Service is the summed backend service time of every executed
	// request — the session's demand on the array.
	Service sim.Duration
}

// SessionOptions configures a session.
type SessionOptions struct {
	// MaxWindow caps the granted in-flight window (0 = MaxWindow).
	MaxWindow int
	// Partition maps the hello's VM field to the session's LBA range.
	// ok == false refuses the handshake. Nil serves every VM the whole
	// device.
	Partition func(vm uint32) (first, blocks int64, ok bool)
}

// Session is the server-side state machine for one connection. It is a
// pure byte machine — no clock, no goroutines, no I/O of its own — so
// the same code serves simulated event-driven clients and real TCP
// connections. Not safe for concurrent use, Stats excepted: the
// goroutine that feeds the session owns it, and a Registry on another
// goroutine sees only the accounting published after each Feed.
type Session struct {
	name    string
	backend Backend
	opt     SessionOptions

	state  SessionState
	window int
	first  int64 // negotiated partition start
	blocks int64 // negotiated partition length

	dec Decoder
	out []byte
	// pending collects the complete frames of one Feed burst before any
	// executes: the window check sees the whole burst, and a malformed
	// frame poisons the burst before side effects.
	pending []Request
	// burstIDs detects id reuse within the in-flight window. Cleared
	// (not reallocated) per burst; replies retire ids synchronously, so
	// the in-flight set is exactly the burst.
	burstIDs map[uint64]struct{}

	stats SessionStats
	// published is stats as of the last completed Feed, the copy other
	// goroutines read. The lock is per session and taken once per Feed,
	// so connections share nothing on the request path.
	pubMu     sync.Mutex
	published SessionStats

	block   [blockdev.BlockSize]byte
	payload []byte // read-reply staging, reused across requests
}

// NewSession returns a session in the handshake state, serving backend.
func NewSession(name string, backend Backend, opt SessionOptions) *Session {
	if opt.MaxWindow <= 0 || opt.MaxWindow > MaxWindow {
		opt.MaxWindow = MaxWindow
	}
	return &Session{
		name:     name,
		backend:  backend,
		opt:      opt,
		burstIDs: make(map[uint64]struct{}),
	}
}

// Name returns the session label.
func (s *Session) Name() string { return s.name }

// State returns the lifecycle position.
func (s *Session) State() SessionState { return s.state }

// Window returns the granted in-flight window (0 before handshake).
func (s *Session) Window() int { return s.window }

// Partition returns the negotiated LBA range (after handshake).
func (s *Session) Partition() (first, blocks int64) { return s.first, s.blocks }

// Stats returns a copy of the accounting as of the last completed Feed.
// It is the one method safe to call from a goroutine other than the
// session's owner.
func (s *Session) Stats() SessionStats {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.published
}

// fail marks the session dead and returns err.
func (s *Session) fail(err error) ([]byte, error) {
	s.state = StateFailed
	return s.out, err
}

// Feed hands the session received bytes and returns the reply bytes to
// transmit. The returned slice is valid until the next Feed call. A
// non-nil error is fatal to the session: a *Fault for protocol
// violations, or a wrapped backend error for an unrecoverable device
// failure (absorbed device errors become StatusIO replies instead).
func (s *Session) Feed(p []byte) ([]byte, error) {
	out, err := s.feed(p)
	s.pubMu.Lock()
	s.published = s.stats
	s.pubMu.Unlock()
	return out, err
}

func (s *Session) feed(p []byte) ([]byte, error) {
	s.out = s.out[:0]
	s.stats.BytesIn += int64(len(p))
	s.dec.Feed(p)

	if s.state == StateHandshake {
		done, err := s.handshake()
		if err != nil || !done {
			return s.out, err
		}
	}
	if s.state == StateClosed || s.state == StateFailed {
		if s.dec.Buffered() > 0 {
			return s.fail(faultf(FaultState, "%s: %d bytes after session %s", s.name, s.dec.Buffered(), s.state))
		}
		return s.out, nil
	}

	// Parse the whole burst before executing any of it.
	s.pending = s.pending[:0]
	clear(s.burstIDs)
	for {
		req, err := s.dec.NextRequest()
		if err == ErrNeedMore {
			break
		}
		if err != nil {
			return s.fail(err)
		}
		if _, dup := s.burstIDs[req.ID]; dup {
			return s.fail(faultf(FaultDupID, "%s: request id %d reused in flight", s.name, req.ID))
		}
		s.burstIDs[req.ID] = struct{}{}
		s.pending = append(s.pending, req)
		if len(s.pending) > s.window {
			return s.fail(faultf(FaultWindow, "%s: %d requests in flight, window is %d", s.name, len(s.pending), s.window))
		}
	}

	// Execute FIFO; replies are emitted in request order, so a client
	// tracker sees completions exactly as the array retired them.
	for i := range s.pending {
		if err := s.execute(&s.pending[i]); err != nil {
			return s.fail(err)
		}
		if s.state == StateClosed {
			if i < len(s.pending)-1 || s.dec.Buffered() > 0 {
				return s.fail(faultf(FaultState, "%s: frames after close", s.name))
			}
			break
		}
	}
	s.stats.BytesOut += int64(len(s.out))
	return s.out, nil
}

// handshake consumes the hello once enough bytes arrived. done reports
// whether serving may begin this Feed.
func (s *Session) handshake() (done bool, err error) {
	h, err := s.dec.NextHello()
	if err == ErrNeedMore {
		return false, nil
	}
	if err != nil {
		s.state = StateFailed
		return false, err
	}
	refuse := func(status uint32, f *Fault) (bool, error) {
		s.out = AppendHelloReply(s.out, HelloReply{Version: ProtocolVersion, Status: status})
		s.stats.BytesOut += int64(len(s.out))
		s.state = StateClosed
		return false, f
	}
	if h.Version != ProtocolVersion {
		return refuse(RefuseVersion, faultf(FaultVersion, "%s: client version %d, server speaks %d", s.name, h.Version, ProtocolVersion))
	}
	if h.Flags != 0 {
		return refuse(RefuseBadRequest, faultf(FaultOp, "%s: reserved hello flags %#x", s.name, h.Flags))
	}
	first, blocks := int64(0), s.backend.Blocks()
	if s.opt.Partition != nil {
		var ok bool
		first, blocks, ok = s.opt.Partition(h.VM)
		if !ok {
			return refuse(RefuseVM, faultf(FaultVM, "%s: vm %d not served", s.name, h.VM))
		}
	}
	w := int(h.WantWindow)
	if w < 1 {
		w = 1
	}
	if w > s.opt.MaxWindow {
		w = s.opt.MaxWindow
	}
	s.window = w
	s.first, s.blocks = first, blocks
	s.state = StateServing
	s.out = AppendHelloReply(s.out, HelloReply{
		Version:   ProtocolVersion,
		Window:    uint16(w),
		Status:    HandshakeOK,
		BlockSize: blockdev.BlockSize,
		FirstLBA:  uint64(first),
		Blocks:    uint64(blocks),
	})
	return true, nil
}

// inPartition reports whether [lba, lba+n) lies inside the session's
// negotiated range.
func (s *Session) inPartition(lba uint64, n uint32) bool {
	end := uint64(s.first) + uint64(s.blocks)
	return lba >= uint64(s.first) && lba <= end && uint64(n) <= end-lba
}

// absorb classifies a backend error: device-lost is fatal (returned,
// wrapped), anything else is absorbed into a StatusIO reply.
func (s *Session) absorb(req *Request, op string, err error) error {
	if blockdev.Classify(err) == blockdev.ClassDeviceLost {
		return fmt.Errorf("server: %s: %s request %d lba %d: %w", s.name, op, req.ID, req.LBA, err)
	}
	s.stats.StatusErrors++
	s.out = AppendReply(s.out, Reply{Op: req.Op, Status: StatusIO, ID: req.ID})
	return nil
}

// execute runs one request against the backend and appends its reply.
func (s *Session) execute(req *Request) error {
	s.stats.Requests++
	switch req.Op {
	case OpRead, OpWrite, OpTrim:
		if !s.inPartition(req.LBA, req.Blocks) {
			s.stats.StatusErrors++
			s.out = AppendReply(s.out, Reply{Op: req.Op, Status: StatusRange, ID: req.ID})
			return nil
		}
	}
	switch req.Op {
	case OpRead:
		s.stats.Reads++
		s.payload = s.payload[:0]
		for i := uint32(0); i < req.Blocks; i++ {
			d, err := s.backend.ReadBlock(int64(req.LBA)+int64(i), s.block[:])
			if err != nil {
				return s.absorb(req, "read", err)
			}
			s.stats.Service += d
			s.payload = append(s.payload, s.block[:]...)
		}
		s.out = AppendReply(s.out, Reply{Op: OpRead, Status: StatusOK, ID: req.ID, Payload: s.payload})
	case OpWrite:
		s.stats.Writes++
		for i := uint32(0); i < req.Blocks; i++ {
			chunk := req.Payload[i*blockdev.BlockSize : (i+1)*blockdev.BlockSize]
			d, err := s.backend.WriteBlock(int64(req.LBA)+int64(i), chunk)
			if err != nil {
				return s.absorb(req, "write", err)
			}
			s.stats.Service += d
		}
		s.out = AppendReply(s.out, Reply{Op: OpWrite, Status: StatusOK, ID: req.ID})
	case OpTrim:
		s.stats.Trims++
		clear(s.block[:])
		for i := uint32(0); i < req.Blocks; i++ {
			d, err := s.backend.WriteBlock(int64(req.LBA)+int64(i), s.block[:])
			if err != nil {
				return s.absorb(req, "trim", err)
			}
			s.stats.Service += d
		}
		s.out = AppendReply(s.out, Reply{Op: OpTrim, Status: StatusOK, ID: req.ID})
	case OpFlush:
		s.stats.Flushes++
		if err := s.backend.Flush(); err != nil {
			return s.absorb(req, "flush", err)
		}
		s.out = AppendReply(s.out, Reply{Op: OpFlush, Status: StatusOK, ID: req.ID})
	case OpClose:
		// Graceful shutdown: drain in-flight transactions through the
		// group-commit journal before acknowledging — the close ack
		// promises everything the session acknowledged is durable.
		s.stats.Flushes++
		if err := s.backend.Flush(); err != nil {
			return s.absorb(req, "close", err)
		}
		s.out = AppendReply(s.out, Reply{Op: OpClose, Status: StatusOK, ID: req.ID})
		s.state = StateClosed
	}
	return nil
}

// CloseStream reports the transport ended. A clean end between frames
// is fine (the session just closes); bytes buffered mid-frame mean the
// peer died mid-transaction and surface as FaultTruncated.
func (s *Session) CloseStream() error {
	if s.state == StateFailed {
		return nil
	}
	buffered := s.dec.Buffered()
	if buffered > 0 {
		s.state = StateFailed
		return faultf(FaultTruncated, "%s: stream ended with %d bytes of a partial frame", s.name, buffered)
	}
	if s.state != StateClosed {
		s.state = StateClosed
	}
	return nil
}
